// Package viz builds the three data products of the paper's interactive
// visual interface (Figure 1): the topic projection view (t-SNE over
// topic-topic similarity), the topic-action matrix (per-topic action
// probabilities rendered as opacity), and the topic chord diagram (shared
// actions between topics). The interface itself is interactive; this
// package produces the exact artifacts it displays, as JSON for external
// tooling and as ASCII for terminal inspection, so that a human expert (or
// the simulated expert in package expert) can make the same judgments.
package viz

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"misusedetect/internal/lda"
	"misusedetect/internal/tsne"
)

// ProjectedTopic is one topic dot in the projection view.
type ProjectedTopic struct {
	// Topic is the index into the ensemble's pooled topic list.
	Topic int `json:"topic"`
	// Run and Index identify the topic's source LDA run.
	Run   int `json:"run"`
	Index int `json:"index"`
	// X, Y are the t-SNE coordinates.
	X float64 `json:"x"`
	Y float64 `json:"y"`
	// Weight is the topic's corpus mass (size of the dot).
	Weight float64 `json:"weight"`
}

// MatrixCell is one block of the topic-action matrix; Opacity in [0,1] is
// the normalized probability of the action within the topic.
type MatrixCell struct {
	Topic   int     `json:"topic"`
	Action  int     `json:"action"`
	Opacity float64 `json:"opacity"`
}

// ChordFan is one outer fan of the chord diagram: a topic whose length is
// the number of actions belonging to it.
type ChordFan struct {
	Topic   int   `json:"topic"`
	Actions []int `json:"actions"`
}

// ChordLink connects two topics; Shared is the number of actions they have
// in common (link thickness).
type ChordLink struct {
	A      int `json:"a"`
	B      int `json:"b"`
	Shared int `json:"shared"`
}

// View is the complete state of the visual interface for one ensemble.
type View struct {
	// Projection is the t-SNE topic projection (top-left view).
	Projection []ProjectedTopic `json:"projection"`
	// Matrix is the topic-action matrix (right view), sparse: cells with
	// zero opacity are omitted.
	Matrix []MatrixCell `json:"matrix"`
	// Fans and Links form the chord diagram (bottom-left view).
	Fans  []ChordFan  `json:"fans"`
	Links []ChordLink `json:"links"`
	// ActionNames indexes the action vocabulary for display.
	ActionNames []string `json:"action_names"`
}

// Config tunes the view construction.
type Config struct {
	// TSNE parameterizes the projection.
	TSNE tsne.Config
	// MembershipQuantile controls which actions "belong" to a topic for
	// the chord diagram: an action belongs when its probability exceeds
	// MembershipQuantile / vocabularySize (2 means twice the uniform
	// probability).
	MembershipQuantile float64
	// MatrixEpsilon drops matrix cells with opacity below it, keeping
	// the serialized view sparse.
	MatrixEpsilon float64
}

// DefaultConfig returns the standard view construction parameters.
func DefaultConfig(seed int64) Config {
	return Config{
		TSNE:               tsne.DefaultConfig(seed),
		MembershipQuantile: 2,
		MatrixEpsilon:      0.01,
	}
}

// Build assembles the view for a fitted ensemble.
func Build(ens *lda.Ensemble, actionNames []string, cfg Config) (*View, error) {
	if len(actionNames) != ens.VocabSize {
		return nil, fmt.Errorf("viz: %d action names for vocab size %d", len(actionNames), ens.VocabSize)
	}
	dist, err := ens.DistanceMatrix()
	if err != nil {
		return nil, fmt.Errorf("viz: topic distances: %w", err)
	}
	pts, err := tsne.Embed(dist, cfg.TSNE)
	if err != nil {
		return nil, fmt.Errorf("viz: project topics: %w", err)
	}
	v := &View{ActionNames: append([]string(nil), actionNames...)}
	for i, t := range ens.Topics {
		v.Projection = append(v.Projection, ProjectedTopic{
			Topic: i, Run: t.Run, Index: t.Index,
			X: pts[i].X, Y: pts[i].Y, Weight: t.Weight,
		})
	}

	// Topic-action matrix: opacity is probability normalized by the
	// topic's maximum so every row uses the full opacity range.
	for i, t := range ens.Topics {
		maxP := 0.0
		for _, p := range t.WordDist {
			if p > maxP {
				maxP = p
			}
		}
		if maxP == 0 {
			continue
		}
		for a, p := range t.WordDist {
			op := p / maxP
			if op >= cfg.MatrixEpsilon {
				v.Matrix = append(v.Matrix, MatrixCell{Topic: i, Action: a, Opacity: op})
			}
		}
	}

	// Chord diagram: membership sets and pairwise overlaps.
	threshold := cfg.MembershipQuantile / float64(ens.VocabSize)
	members := make([][]int, len(ens.Topics))
	for i, t := range ens.Topics {
		for a, p := range t.WordDist {
			if p > threshold {
				members[i] = append(members[i], a)
			}
		}
		v.Fans = append(v.Fans, ChordFan{Topic: i, Actions: members[i]})
	}
	for i := range members {
		seti := make(map[int]struct{}, len(members[i]))
		for _, a := range members[i] {
			seti[a] = struct{}{}
		}
		for j := i + 1; j < len(members); j++ {
			shared := 0
			for _, a := range members[j] {
				if _, ok := seti[a]; ok {
					shared++
				}
			}
			if shared > 0 {
				v.Links = append(v.Links, ChordLink{A: i, B: j, Shared: shared})
			}
		}
	}
	return v, nil
}

// RenderASCII writes a terminal rendering of the view: a scatter plot of
// the projection, the densest rows of the topic-action matrix, and the
// strongest chord links.
func (v *View) RenderASCII(w io.Writer, width, height int) error {
	if width < 10 || height < 5 {
		return fmt.Errorf("viz: canvas %dx%d too small", width, height)
	}
	if _, err := fmt.Fprintln(w, "Topic projection (t-SNE):"); err != nil {
		return err
	}
	if err := v.renderScatter(w, width, height); err != nil {
		return err
	}
	if err := v.renderTopLinks(w, 10); err != nil {
		return err
	}
	return nil
}

func (v *View) renderScatter(w io.Writer, width, height int) error {
	if len(v.Projection) == 0 {
		_, err := fmt.Fprintln(w, "  (no topics)")
		return err
	}
	minX, maxX := math.Inf(1), math.Inf(-1)
	minY, maxY := math.Inf(1), math.Inf(-1)
	for _, p := range v.Projection {
		minX = math.Min(minX, p.X)
		maxX = math.Max(maxX, p.X)
		minY = math.Min(minY, p.Y)
		maxY = math.Max(maxY, p.Y)
	}
	if maxX == minX {
		maxX = minX + 1
	}
	if maxY == minY {
		maxY = minY + 1
	}
	grid := make([][]rune, height)
	for i := range grid {
		grid[i] = []rune(strings.Repeat(" ", width))
	}
	for _, p := range v.Projection {
		x := int((p.X - minX) / (maxX - minX) * float64(width-1))
		y := int((p.Y - minY) / (maxY - minY) * float64(height-1))
		r := rune('a' + p.Run%26)
		grid[height-1-y][x] = r
	}
	for _, row := range grid {
		if _, err := fmt.Fprintf(w, "  |%s|\n", string(row)); err != nil {
			return err
		}
	}
	return nil
}

func (v *View) renderTopLinks(w io.Writer, n int) error {
	links := append([]ChordLink(nil), v.Links...)
	sort.Slice(links, func(i, j int) bool { return links[i].Shared > links[j].Shared })
	if len(links) > n {
		links = links[:n]
	}
	if _, err := fmt.Fprintln(w, "Strongest topic overlaps (chord links):"); err != nil {
		return err
	}
	for _, l := range links {
		if _, err := fmt.Fprintf(w, "  topic %d -- topic %d: %d shared actions\n", l.A, l.B, l.Shared); err != nil {
			return err
		}
	}
	return nil
}
