package harness

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/absmac/absmac/internal/graph"
)

// Topo describes a topology by family name plus the family's parameters.
// The zero value is invalid; construct via ParseTopo or a literal with Kind
// set. Topologies marshal to their compact string form in JSON.
type Topo struct {
	// Kind is a registered family: clique | line | ring | star | grid |
	// tree | starlines | random | expander | pods.
	Kind string
	// N is the node count for clique/line/ring/star/random/expander.
	N int
	// Rows and Cols shape grids.
	Rows, Cols int
	// Branch and Depth shape balanced trees.
	Branch, Depth int
	// Arms and ArmLen shape stars-of-lines.
	Arms, ArmLen int
	// P is the random family's edge probability.
	P float64
	// Deg is the expander family's degree.
	Deg int
	// Pods, PodSize and Cross shape the multi-pod sparse mesh: Pods pods
	// of PodSize nodes with Cross cross-pod links per pod.
	Pods, PodSize, Cross int
}

// Topologies returns the registered topology family names, sorted.
func Topologies() []string {
	return []string{"clique", "expander", "grid", "line", "pods", "random", "ring", "star", "starlines", "tree"}
}

// ParseTopo parses the compact topology grammar used by sweep flags:
//
//	clique:N  line:N  ring:N  star:N       one size parameter
//	grid:RxC  tree:BxD  starlines:AxL      two, separated by 'x'
//	random:N:P                             size and edge probability
//	expander:N:D                           seeded random D-regular graph
//	pods:P:K:C                             P pods of K nodes, C cross links
//
// Examples: "clique:16", "grid:4x4", "tree:2x3", "random:24:0.1",
// "expander:1024:8", "pods:16:64:4".
func ParseTopo(s string) (Topo, error) {
	parts := strings.Split(s, ":")
	kind := parts[0]
	bad := func() (Topo, error) {
		return Topo{}, fmt.Errorf("harness: cannot parse topology %q (grammar: kind:N, kind:AxB, random:N:P, expander:N:D or pods:P:K:C; kinds %v)", s, Topologies())
	}
	one := func() (int, bool) {
		if len(parts) != 2 {
			return 0, false
		}
		n, err := strconv.Atoi(parts[1])
		return n, err == nil
	}
	two := func() (int, int, bool) {
		if len(parts) != 2 {
			return 0, 0, false
		}
		ab := strings.SplitN(parts[1], "x", 2)
		if len(ab) != 2 {
			return 0, 0, false
		}
		a, err1 := strconv.Atoi(ab[0])
		b, err2 := strconv.Atoi(ab[1])
		return a, b, err1 == nil && err2 == nil
	}
	switch kind {
	case "clique", "line", "ring", "star":
		n, ok := one()
		if !ok {
			return bad()
		}
		return Topo{Kind: kind, N: n}, nil
	case "grid":
		r, c, ok := two()
		if !ok {
			return bad()
		}
		return Topo{Kind: kind, Rows: r, Cols: c}, nil
	case "tree":
		b, d, ok := two()
		if !ok {
			return bad()
		}
		return Topo{Kind: kind, Branch: b, Depth: d}, nil
	case "starlines":
		a, l, ok := two()
		if !ok {
			return bad()
		}
		return Topo{Kind: kind, Arms: a, ArmLen: l}, nil
	case "random":
		if len(parts) != 3 {
			return bad()
		}
		n, err1 := strconv.Atoi(parts[1])
		p, err2 := strconv.ParseFloat(parts[2], 64)
		if err1 != nil || err2 != nil {
			return bad()
		}
		return Topo{Kind: kind, N: n, P: p}, nil
	case "expander":
		if len(parts) != 3 {
			return bad()
		}
		n, err1 := strconv.Atoi(parts[1])
		d, err2 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil {
			return bad()
		}
		return Topo{Kind: kind, N: n, Deg: d}, nil
	case "pods":
		if len(parts) != 4 {
			return bad()
		}
		p, err1 := strconv.Atoi(parts[1])
		k, err2 := strconv.Atoi(parts[2])
		c, err3 := strconv.Atoi(parts[3])
		if err1 != nil || err2 != nil || err3 != nil {
			return bad()
		}
		return Topo{Kind: kind, Pods: p, PodSize: k, Cross: c}, nil
	default:
		return bad()
	}
}

// String renders the topology in the ParseTopo grammar. It formats with
// strconv rather than fmt: sweeps call it once per cell, and fmt's pooled
// printer re-allocates its per-P cache after every GC, which made the
// pinned allocation count of a sweep depend on GC timing.
func (t Topo) String() string {
	var buf [48]byte
	b := append(buf[:0], t.Kind...)
	b = append(b, ':')
	switch t.Kind {
	case "grid":
		b = appendInts(b, 'x', t.Rows, t.Cols)
	case "tree":
		b = appendInts(b, 'x', t.Branch, t.Depth)
	case "starlines":
		b = appendInts(b, 'x', t.Arms, t.ArmLen)
	case "random":
		b = appendInts(b, ':', t.N)
		b = append(b, ':')
		b = strconv.AppendFloat(b, t.P, 'g', -1, 64)
	case "expander":
		b = appendInts(b, ':', t.N, t.Deg)
	case "pods":
		b = appendInts(b, ':', t.Pods, t.PodSize, t.Cross)
	default:
		b = appendInts(b, ':', t.N)
	}
	return string(b)
}

// appendInts appends vs to b, separated by sep.
func appendInts(b []byte, sep byte, vs ...int) []byte {
	for i, v := range vs {
		if i > 0 {
			b = append(b, sep)
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return b
}

// MarshalText renders the compact grammar (so Topo JSON-encodes as a
// string inside Scenario and Cell).
func (t Topo) MarshalText() ([]byte, error) { return []byte(t.String()), nil }

// UnmarshalText parses the compact grammar.
func (t *Topo) UnmarshalText(b []byte) error {
	parsed, err := ParseTopo(string(b))
	if err != nil {
		return err
	}
	*t = parsed
	return nil
}

// buildSeed is the seed as far as Build's output is concerned: it
// normalizes to 0 for the families known to ignore their seed, which lets
// the sweep caches share one graph across a whole seed axis. The list is
// an allowlist on purpose — a family not named here (including any future
// one) conservatively keys on the full seed, so forgetting to classify a
// new family costs cache hits, never correctness.
func (t Topo) buildSeed(seed int64) int64 {
	switch t.Kind {
	case "clique", "line", "ring", "star", "grid", "tree", "starlines":
		return 0
	}
	return seed
}

// Build constructs the graph. The seed feeds the random family only (see
// buildSeed); every other family ignores it, so the same Topo builds the
// same graph.
func (t Topo) Build(seed int64) (*graph.Graph, error) {
	switch t.Kind {
	case "clique":
		return checkN(graph.Clique, t)
	case "line":
		return checkN(graph.Line, t)
	case "ring":
		if t.N < 3 {
			return nil, fmt.Errorf("harness: %s needs n >= 3", t)
		}
		return graph.Ring(t.N), nil
	case "star":
		return checkN(graph.Star, t)
	case "grid":
		if t.Rows < 1 || t.Cols < 1 {
			return nil, fmt.Errorf("harness: %s needs rows, cols >= 1", t)
		}
		return graph.Grid(t.Rows, t.Cols), nil
	case "tree":
		if t.Branch < 1 || t.Depth < 0 {
			return nil, fmt.Errorf("harness: %s needs branch >= 1, depth >= 0", t)
		}
		return graph.BalancedTree(t.Branch, t.Depth), nil
	case "starlines":
		if t.Arms < 1 || t.ArmLen < 1 {
			return nil, fmt.Errorf("harness: %s needs arms, armlen >= 1", t)
		}
		return graph.StarOfLines(t.Arms, t.ArmLen), nil
	case "random":
		if t.N < 1 || t.P < 0 || t.P > 1 {
			return nil, fmt.Errorf("harness: %s needs n >= 1 and p in [0,1]", t)
		}
		return graph.RandomConnected(t.N, t.P, seed), nil
	case "expander":
		if t.Deg < 3 || t.Deg >= t.N || t.N*t.Deg%2 != 0 {
			return nil, fmt.Errorf("harness: %s needs 3 <= d < n with n*d even", t)
		}
		return graph.Expander(t.N, t.Deg, expanderSeed(seed)), nil
	case "pods":
		if t.Pods < 1 || t.PodSize < 1 || t.Cross < 0 || (t.Pods > 1 && t.Cross < 1) {
			return nil, fmt.Errorf("harness: %s needs p, k >= 1 and c >= 1 when p > 1", t)
		}
		return graph.Pods(t.Pods, t.PodSize, t.Cross, podsSeed(seed)), nil
	default:
		return nil, fmt.Errorf("harness: unknown topology kind %q (have %v)", t.Kind, Topologies())
	}
}

func checkN(mk func(int) *graph.Graph, t Topo) (*graph.Graph, error) {
	if t.N < 1 {
		return nil, fmt.Errorf("harness: %s needs n >= 1", t)
	}
	return mk(t.N), nil
}

// expanderSeed and podsSeed decorrelate the seeded topology builders from
// the scheduler (which consumes the scenario seed directly) and from each
// other. They are part of the affine seed-map registry kept beside
// overlaySeed in adversity.go: every map there must stay distinct.
func expanderSeed(seed int64) int64 { return seed*9176741 + 389 }

func podsSeed(seed int64) int64 { return seed*15485863 + 577 }
