package actionlog

import (
	"fmt"
	"sync"
	"testing"
)

func internTestVocab(t *testing.T) *Vocabulary {
	t.Helper()
	v, err := NewVocabulary([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestInternerSeedTokensAreVocabIndices(t *testing.T) {
	v := internTestVocab(t)
	in := NewInterner(v)
	for i, name := range v.Actions() {
		if tok := in.Intern(name); int(tok) != i {
			t.Fatalf("seed action %q interned to %d, want vocabulary index %d", name, tok, i)
		}
	}
	snap := in.Snapshot()
	if snap.Len() != 3 || snap.Learned() != 0 {
		t.Fatalf("snapshot len/learned = %d/%d", snap.Len(), snap.Learned())
	}
}

func TestInternerLearnsUnknownActions(t *testing.T) {
	v := internTestVocab(t)
	in := NewInterner(v)
	tok := in.Intern("zz-new")
	if tok != 3 {
		t.Fatalf("first learned token = %d, want 3", tok)
	}
	if again := in.Intern("zz-new"); again != tok {
		t.Fatalf("re-interning gave %d, want stable %d", again, tok)
	}
	snap := in.Snapshot()
	if snap.Len() != 4 || snap.Learned() != 1 {
		t.Fatalf("snapshot after learn len/learned = %d/%d", snap.Len(), snap.Learned())
	}
	if name, ok := snap.Name(tok); !ok || name != "zz-new" {
		t.Fatalf("Name(%d) = %q/%v", tok, name, ok)
	}
	if _, ok := snap.Name(99); ok {
		t.Fatal("out-of-range token resolved")
	}
	if in.Intern("") != TokenUnknown {
		t.Fatal("empty name must intern to TokenUnknown")
	}
}

// TestInternerSnapshotsAppendOnly pins the property the engine's session
// recording relies on: a snapshot taken later resolves every token an
// earlier snapshot issued, and earlier snapshots never see later names.
func TestInternerSnapshotsAppendOnly(t *testing.T) {
	in := NewInterner(internTestVocab(t))
	old := in.Snapshot()
	tok := in.Intern("later")
	if _, ok := old.Name(tok); ok {
		t.Fatal("old snapshot resolves a token issued after it")
	}
	now := in.Snapshot()
	for i := int32(0); int(i) < old.Len(); i++ {
		oldName, _ := old.Name(i)
		newName, ok := now.Name(i)
		if !ok || oldName != newName {
			t.Fatalf("token %d changed meaning: %q -> %q", i, oldName, newName)
		}
	}
}

func TestInternerLearnLimit(t *testing.T) {
	in := NewInternerLimit(internTestVocab(t), 2)
	if in.Intern("n1") != 3 || in.Intern("n2") != 4 {
		t.Fatal("learning below the limit must assign tokens")
	}
	if in.Intern("n3") != TokenUnknown {
		t.Fatal("learning past the limit must yield TokenUnknown")
	}
	// Already-learned names keep resolving.
	if in.Intern("n1") != 3 {
		t.Fatal("learned name lost after the limit")
	}
	if got := in.Snapshot().Len(); got != 5 {
		t.Fatalf("pool size %d, want 5", got)
	}
}

// TestInternerInstall pins the install path a model generation takes: a
// vocabulary's names are interned outside the learning budget, even on a
// saturated interner, without moving an earlier token or the learned
// count, and installing the same vocabulary again adds nothing.
func TestInternerInstall(t *testing.T) {
	in := NewInternerLimit(internTestVocab(t), 1)
	if in.Intern("n1") != 3 || in.Intern("n2") != TokenUnknown {
		t.Fatal("the budget of one learned name must be spent")
	}
	before := in.Snapshot()
	grown, err := NewVocabulary([]string{"c", "n1", "x", "a", "y"})
	if err != nil {
		t.Fatal(err)
	}
	in.Install(grown)
	after := in.Snapshot()
	if after.Len() != before.Len()+2 || after.Learned() != before.Learned() {
		t.Fatalf("install: len %d -> %d, learned %d -> %d; want two installed names and the learned count unchanged",
			before.Len(), after.Len(), before.Learned(), after.Learned())
	}
	for tok := int32(0); int(tok) < before.Len(); tok++ {
		was, _ := before.Name(tok)
		if now, _ := after.Name(tok); now != was || in.Intern(was) != tok {
			t.Fatalf("token %d changed meaning on install: %q -> %q", tok, was, now)
		}
	}
	if in.Intern("x") != 4 || in.Intern("y") != 5 {
		t.Fatalf("installed names got tokens %d/%d, want 4/5 in vocabulary order", in.Intern("x"), in.Intern("y"))
	}
	if in.Intern("n2") != TokenUnknown {
		t.Fatal("install must not reopen the learning budget")
	}
	in.Install(grown)
	if again := in.Snapshot(); again != after {
		t.Fatalf("second install of the same vocabulary changed the pool (len %d -> %d)", after.Len(), again.Len())
	}
}

func TestInternAllAndRemapTo(t *testing.T) {
	v := internTestVocab(t)
	in := NewInterner(v)
	var toks []int32
	for _, name := range []string{"a", "zz", "c", ""} {
		toks = append(toks, in.Intern(name))
	}
	if len(toks) != 4 || toks[0] != 0 || toks[1] != 3 || toks[2] != 2 || toks[3] != TokenUnknown {
		t.Fatalf("Intern in order = %v", toks)
	}
	// Remap into a grown vocabulary that includes the learned action at
	// a different index.
	grown, err := NewVocabulary([]string{"a", "b", "c", "other", "zz"})
	if err != nil {
		t.Fatal(err)
	}
	rm := in.Snapshot().RemapTo(grown)
	want := []int32{0, 1, 2, 4}
	for i, w := range want {
		if rm[i] != w {
			t.Fatalf("remap[%d] = %d, want %d (table %v)", i, rm[i], w, rm)
		}
	}
	// Remap into the original vocabulary marks the learned token unknown.
	rm = in.Snapshot().RemapTo(v)
	if rm[3] != TokenUnknown {
		t.Fatalf("learned token remapped into seed vocab as %d", rm[3])
	}
}

// TestInternerConcurrent hammers one interner from many goroutines mixing
// seed hits and fresh learnings; every goroutine must observe stable
// token assignments (run under -race in CI).
func TestInternerConcurrent(t *testing.T) {
	in := NewInterner(internTestVocab(t))
	const workers = 8
	var wg sync.WaitGroup
	tokens := make([]map[string]int32, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got := map[string]int32{}
			for round := 0; round < 50; round++ {
				for i := 0; i < 20; i++ {
					name := fmt.Sprintf("new-%d", i)
					tok := in.Intern(name)
					if prev, seen := got[name]; seen && prev != tok {
						t.Errorf("token for %q changed %d -> %d", name, prev, tok)
						return
					}
					got[name] = tok
					if in.Intern("a") != 0 {
						t.Error("seed token drifted")
						return
					}
				}
			}
			tokens[w] = got
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for name, tok := range tokens[0] {
			if tokens[w][name] != tok {
				t.Fatalf("worker %d disagrees on %q: %d vs %d", w, name, tokens[w][name], tok)
			}
		}
	}
	if got := in.Snapshot().Len(); got != 3+20 {
		t.Fatalf("pool size %d, want 23", got)
	}
}
