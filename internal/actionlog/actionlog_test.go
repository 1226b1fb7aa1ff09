package actionlog

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func mkSession(id string, actions ...string) *Session {
	return &Session{ID: id, User: "u-" + id, Start: time.Unix(0, 0), Actions: actions, Cluster: -1}
}

func TestVocabularyBasics(t *testing.T) {
	v, err := NewVocabulary([]string{"a", "b", "c"})
	if err != nil {
		t.Fatal(err)
	}
	if v.Size() != 3 {
		t.Fatalf("Size = %d", v.Size())
	}
	i, err := v.Index("b")
	if err != nil || i != 1 {
		t.Fatalf("Index(b) = %d, %v", i, err)
	}
	if _, err := v.Index("zz"); err == nil {
		t.Fatal("expected error for unknown action")
	}
	a, err := v.Action(2)
	if err != nil || a != "c" {
		t.Fatalf("Action(2) = %q, %v", a, err)
	}
	if _, err := v.Action(3); err == nil {
		t.Fatal("expected error for out-of-range index")
	}
	if !v.Contains("a") || v.Contains("zz") {
		t.Fatal("Contains misbehaves")
	}
}

func TestVocabularyRejectsDuplicatesAndEmpty(t *testing.T) {
	if _, err := NewVocabulary([]string{"a", "a"}); err == nil {
		t.Fatal("expected duplicate error")
	}
	if _, err := NewVocabulary([]string{""}); err == nil {
		t.Fatal("expected empty-name error")
	}
}

func TestVocabularyFromSessionsDeterministic(t *testing.T) {
	ss := []*Session{mkSession("1", "b", "a"), mkSession("2", "c", "a")}
	v1, err := VocabularyFromSessions(ss)
	if err != nil {
		t.Fatal(err)
	}
	v2, _ := VocabularyFromSessions([]*Session{ss[1], ss[0]})
	if !reflect.DeepEqual(v1.Actions(), v2.Actions()) {
		t.Fatalf("vocabulary order not deterministic: %v vs %v", v1.Actions(), v2.Actions())
	}
	if !reflect.DeepEqual(v1.Actions(), []string{"a", "b", "c"}) {
		t.Fatalf("want sorted actions, got %v", v1.Actions())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	v, _ := NewVocabulary([]string{"x", "y", "z"})
	s := mkSession("1", "z", "x", "y", "x")
	enc, err := v.Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := v.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, s.Actions) {
		t.Fatalf("round trip %v -> %v -> %v", s.Actions, enc, dec)
	}
}

// Property: Decode(Encode(s)) == s for arbitrary sessions over a random vocabulary.
func TestEncodeDecodeProperty(t *testing.T) {
	names := []string{"a0", "a1", "a2", "a3", "a4", "a5", "a6", "a7"}
	v, _ := NewVocabulary(names)
	f := func(picks []uint8) bool {
		actions := make([]string, len(picks))
		for i, p := range picks {
			actions[i] = names[int(p)%len(names)]
		}
		s := mkSession("p", actions...)
		enc, err := v.Encode(s)
		if err != nil {
			return false
		}
		dec, err := v.Decode(enc)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(dec, actions)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeUnknownActionFails(t *testing.T) {
	v, _ := NewVocabulary([]string{"a"})
	if _, err := v.Encode(mkSession("1", "a", "b")); err == nil {
		t.Fatal("expected error encoding unknown action")
	}
	if _, err := v.EncodeAll([]*Session{mkSession("1", "b")}); err == nil {
		t.Fatal("expected error from EncodeAll")
	}
}

func TestFilterMinLength(t *testing.T) {
	ss := []*Session{mkSession("1", "a"), mkSession("2", "a", "b"), mkSession("3")}
	got := FilterMinLength(ss, 2)
	if len(got) != 1 || got[0].ID != "2" {
		t.Fatalf("FilterMinLength = %v", got)
	}
}

func TestComputeLengthStats(t *testing.T) {
	ss := []*Session{
		mkSession("1", "a", "b"),
		mkSession("2", "a", "b", "c", "d"),
		mkSession("3", "a", "b", "c", "d", "e", "f"),
	}
	st, err := ComputeLengthStats(ss, 50)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mean != 4 || st.Max != 6 || st.Count != 3 || st.PctValue != 4 {
		t.Fatalf("stats = %+v", st)
	}
	if _, err := ComputeLengthStats(nil, 50); err == nil {
		t.Fatal("expected error for empty corpus")
	}
}

func TestSessionClone(t *testing.T) {
	s := mkSession("1", "a", "b")
	c := s.Clone()
	c.Actions[0] = "zzz"
	if s.Actions[0] != "a" {
		t.Fatal("Clone shares the actions slice")
	}
}

func TestParseReconstructRoundTrip(t *testing.T) {
	base := time.Date(2019, 7, 1, 9, 0, 0, 0, time.UTC)
	events := []Event{
		{Time: base, User: "alice", SessionID: "s1", Action: "ActionSearchUser"},
		{Time: base.Add(2 * time.Second), User: "alice", SessionID: "s1", Action: "ActionDisplayUser"},
		{Time: base.Add(time.Second), User: "bob", SessionID: "s2", Action: "ActionCreateUser"},
	}
	var buf bytes.Buffer
	if err := WriteEvents(&buf, events); err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != 3 {
		t.Fatalf("parsed %d events", len(parsed))
	}
	sessions := Reconstruct(parsed)
	if len(sessions) != 2 {
		t.Fatalf("got %d sessions", len(sessions))
	}
	if sessions[0].ID != "s1" || sessions[1].ID != "s2" {
		t.Fatalf("session order: %s, %s", sessions[0].ID, sessions[1].ID)
	}
	if !reflect.DeepEqual(sessions[0].Actions, []string{"ActionSearchUser", "ActionDisplayUser"}) {
		t.Fatalf("s1 actions = %v", sessions[0].Actions)
	}
	if sessions[0].User != "alice" || sessions[0].Cluster != -1 {
		t.Fatalf("session metadata: %+v", sessions[0])
	}
}

func TestReconstructOrdersByTimestamp(t *testing.T) {
	base := time.Unix(100, 0)
	events := []Event{
		{Time: base.Add(5 * time.Second), User: "u", SessionID: "s", Action: "late"},
		{Time: base, User: "u", SessionID: "s", Action: "early"},
	}
	ss := Reconstruct(events)
	if !reflect.DeepEqual(ss[0].Actions, []string{"early", "late"}) {
		t.Fatalf("actions not time ordered: %v", ss[0].Actions)
	}
}

func TestParseEventsErrors(t *testing.T) {
	cases := []string{
		`{"time":"2019-07-01T00:00:00Z","user":"u","session_id":"s"}`, // missing action
		`{"time":"2019-07-01T00:00:00Z","user":"u","action":"a"}`,     // missing session
		`{not json}`, // malformed
	}
	for _, c := range cases {
		if _, err := ParseEvents(strings.NewReader(c)); err == nil {
			t.Errorf("expected parse error for %q", c)
		}
	}
	evs, err := ParseEvents(strings.NewReader("\n\n"))
	if err != nil || len(evs) != 0 {
		t.Fatalf("blank lines should parse to nothing: %v, %v", evs, err)
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	ss := []*Session{
		mkSession("a", "x", "y"),
		mkSession("b", "z"),
	}
	ss[0].Start = time.Unix(10, 0)
	ss[1].Start = time.Unix(5, 0)
	events := Flatten(ss)
	back := Reconstruct(events)
	if len(back) != 2 || back[0].ID != "b" {
		t.Fatalf("flatten/reconstruct: %+v", back)
	}
	if !reflect.DeepEqual(back[1].Actions, []string{"x", "y"}) {
		t.Fatalf("actions = %v", back[1].Actions)
	}
}

func TestSplitFractionsValidate(t *testing.T) {
	if err := PaperSplit.Validate(); err != nil {
		t.Fatalf("paper split invalid: %v", err)
	}
	bad := []SplitFractions{
		{Train: 0, Validation: 0.5, Test: 0.5},
		{Train: 0.5, Validation: 0.1, Test: 0.1},
		{Train: 0.9, Validation: -0.1, Test: 0.2},
	}
	for _, f := range bad {
		if err := f.Validate(); err == nil {
			t.Errorf("expected invalid: %+v", f)
		}
	}
}

func TestSplitSessionsPartitions(t *testing.T) {
	var ss []*Session
	for i := 0; i < 100; i++ {
		ss = append(ss, mkSession(fmt.Sprint(i), "a", "b"))
	}
	sp, err := SplitSessions(ss, PaperSplit, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Train) != 70 || len(sp.Validation) != 15 || len(sp.Test) != 15 {
		t.Fatalf("split sizes %d/%d/%d", len(sp.Train), len(sp.Validation), len(sp.Test))
	}
	seen := map[string]int{}
	for _, s := range sp.Train {
		seen[s.ID]++
	}
	for _, s := range sp.Validation {
		seen[s.ID]++
	}
	for _, s := range sp.Test {
		seen[s.ID]++
	}
	if len(seen) != 100 {
		t.Fatalf("split lost sessions: %d unique", len(seen))
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("session %s appears %d times", id, n)
		}
	}
}

func TestSplitSessionsDeterministicBySeed(t *testing.T) {
	var ss []*Session
	for i := 0; i < 20; i++ {
		ss = append(ss, mkSession(fmt.Sprint(i), "a", "b"))
	}
	a, _ := SplitSessions(ss, PaperSplit, 7)
	b, _ := SplitSessions(ss, PaperSplit, 7)
	for i := range a.Train {
		if a.Train[i].ID != b.Train[i].ID {
			t.Fatal("same seed must give same split")
		}
	}
	c, _ := SplitSessions(ss, PaperSplit, 8)
	same := true
	for i := range a.Train {
		if a.Train[i].ID != c.Train[i].ID {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds gave identical shuffles (suspicious)")
	}
}

// Property: every split is a partition regardless of size and seed.
func TestSplitPartitionProperty(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		ss := make([]*Session, int(n))
		for i := range ss {
			ss[i] = mkSession(fmt.Sprint(i), "a")
		}
		sp, err := SplitSessions(ss, PaperSplit, seed)
		if err != nil {
			return false
		}
		return len(sp.Train)+len(sp.Validation)+len(sp.Test) == int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSplitByCluster(t *testing.T) {
	clusters := [][]*Session{
		{mkSession("a", "x"), mkSession("b", "x"), mkSession("c", "x"), mkSession("d", "x")},
		{mkSession("e", "x"), mkSession("f", "x")},
	}
	sp, err := SplitByCluster(clusters, SplitFractions{Train: 0.5, Validation: 0.25, Test: 0.25}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp) != 2 {
		t.Fatalf("got %d splits", len(sp))
	}
	if len(sp[0].Train) != 2 {
		t.Fatalf("cluster 0 train = %d", len(sp[0].Train))
	}
}

func TestWindowerValidation(t *testing.T) {
	if _, err := NewWindower(1); err == nil {
		t.Fatal("window size 1 must be rejected")
	}
	w, err := NewWindower(5)
	if err != nil {
		t.Fatal(err)
	}
	if w.InputLen() != 4 {
		t.Fatalf("InputLen = %d", w.InputLen())
	}
}

func TestWindowerSessionPaddingAndTargets(t *testing.T) {
	w, _ := NewWindower(4) // context of 3
	windows := w.Session([]int{10, 11, 12, 13, 14})
	if len(windows) != 4 {
		t.Fatalf("got %d windows, want 4", len(windows))
	}
	// First window: predict 11 from [pad pad 10].
	if !reflect.DeepEqual(windows[0].Input, []int{PaddingIndex, PaddingIndex, 10}) || windows[0].Target != 11 {
		t.Fatalf("window 0 = %+v", windows[0])
	}
	// Third window: full context [10 11 12] -> 13.
	if !reflect.DeepEqual(windows[2].Input, []int{10, 11, 12}) || windows[2].Target != 13 {
		t.Fatalf("window 2 = %+v", windows[2])
	}
	// Fourth window: sliding context [11 12 13] -> 14.
	if !reflect.DeepEqual(windows[3].Input, []int{11, 12, 13}) || windows[3].Target != 14 {
		t.Fatalf("window 3 = %+v", windows[3])
	}
}

func TestWindowerShortSessions(t *testing.T) {
	w, _ := NewWindower(100)
	if got := w.Session([]int{1}); got != nil {
		t.Fatalf("length-1 session must yield no windows, got %v", got)
	}
	if got := w.Session(nil); got != nil {
		t.Fatalf("empty session must yield no windows, got %v", got)
	}
	if got := w.Session([]int{1, 2}); len(got) != 1 {
		t.Fatalf("length-2 session must yield 1 window, got %d", len(got))
	}
}

func TestWindowerCorpusAndCount(t *testing.T) {
	w, _ := NewWindower(3)
	corpus := [][]int{{1, 2, 3}, {4}, {5, 6}}
	windows := w.Corpus(corpus)
	if len(windows) != 3 {
		t.Fatalf("want 3 windows, got %d", len(windows))
	}
}

// Property: window count is sum of (len-1) over sessions with len >= 2, and
// every target is an element of the source session.
func TestWindowerCountProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	w, _ := NewWindower(10)
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(30)
		enc := make([]int, n)
		for i := range enc {
			enc[i] = rng.Intn(100)
		}
		windows := w.Session(enc)
		wantCount := 0
		if n >= 2 {
			wantCount = n - 1
		}
		if len(windows) != wantCount {
			t.Fatalf("n=%d windows=%d want=%d", n, len(windows), wantCount)
		}
		for i, win := range windows {
			if win.Target != enc[i+1] {
				t.Fatalf("window %d target %d, want %d", i, win.Target, enc[i+1])
			}
			if len(win.Input) != w.InputLen() {
				t.Fatalf("input length %d", len(win.Input))
			}
		}
	}
}
