package rwregister

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// Tests for the dense version graph: its cycle check and transitive
// reduction must agree exactly with the map-based reference
// (reference_test.go) — the same reduced edge set on acyclic graphs,
// the same witness cycle on cyclic ones — including at sizes that
// straddle the 64-bit words of the reachability rows.

// bothGraphs builds the graph over vals (distinct, nilVer among them)
// with the given value edges, as the map-based reference and as the
// dense ordinal graph.
func bothGraphs(vals []int, edges [][2]int) (map[int]map[int]bool, *versionGraph) {
	ref := map[int]map[int]bool{}
	for _, v := range vals {
		ref[v] = map[int]bool{}
	}
	vers := slices.Sorted(slices.Values(vals))
	var packed []uint64
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		ref[e[0]][e[1]] = true
		u, _ := slices.BinarySearch(vers, e[0])
		v, _ := slices.BinarySearch(vers, e[1])
		packed = append(packed, uint64(u)<<32|uint64(v))
	}
	return ref, newVersionGraph(vers, packed)
}

// denseEdges lists g's edges as value pairs in ordinal order.
func denseEdges(g *versionGraph) [][2]int {
	var out [][2]int
	for u := range int32(len(g.vers)) {
		for _, v := range g.succs(u) {
			out = append(out, [2]int{g.vers[u], g.vers[v]})
		}
	}
	return out
}

// refEdges lists the reference graph's edges as value pairs in
// ascending order.
func refEdges(vg map[int]map[int]bool) [][2]int {
	var out [][2]int
	for _, u := range slices.Sorted(maps.Keys(vg)) {
		for _, v := range slices.Sorted(maps.Keys(vg[u])) {
			out = append(out, [2]int{u, v})
		}
	}
	return out
}

// checkAgainstReference runs the dense cycle check, and on acyclic
// graphs the dense reduction, on the graph over vals and edges, and
// fails unless both match the reference. It returns the reduced dense
// graph, or nil when the graph is cyclic.
func checkAgainstReference(t testing.TB, vals []int, edges [][2]int) *versionGraph {
	t.Helper()
	ref, g := bothGraphs(vals, edges)
	want := refCyclicWitness(ref)
	got := g.cyclicWitness()
	if !slices.Equal(got, want) {
		t.Fatalf("%d versions: witness %v, reference %v", len(vals), got, want)
	}
	topo, acyclic := g.topoOrder()
	if acyclic != (want == nil) {
		t.Fatalf("%d versions: topoOrder acyclic=%v, reference witness %v", len(vals), acyclic, want)
	}
	if !acyclic {
		return nil
	}
	g.reduce(topo)
	refReduce(ref)
	if got, want := denseEdges(g), refEdges(ref); !slices.Equal(got, want) {
		t.Fatalf("%d versions: reduced edges\n%v\nreference\n%v", len(vals), got, want)
	}
	return g
}

// testVersions returns n distinct versions in shuffled order: nilVer
// and values spread over negatives and positives.
func testVersions(rng *rand.Rand, n int) []int {
	vals := []int{nilVer}
	for _, v := range rng.Perm(4 * n)[:n-1] {
		vals = append(vals, v-2*n)
	}
	rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
	return vals
}

// randomDAG returns random edges over vals, all oriented along a random
// topological order that is unrelated to value order, except that
// nilVer comes first, so the initial-state rule's edges keep it acyclic.
func randomDAG(rng *rand.Rand, vals []int, m int) [][2]int {
	n := len(vals)
	rank := rng.Perm(n)
	rank[slices.Index(vals, nilVer)] = -1
	var edges [][2]int
	for range m {
		a, b := rng.Intn(n), rng.Intn(n)
		if rank[a] > rank[b] {
			a, b = b, a
		}
		edges = append(edges, [2]int{vals[a], vals[b]})
	}
	return edges
}

// boundarySizes straddle the reachability rows' word boundaries.
var boundarySizes = []int{63, 64, 65, 130}

// TestReductionPreservesReachability: the transitive reduction used
// before edge explosion must keep exactly the original reachability,
// keep no redundant edge, and match the reference reduction.
func TestReductionPreservesReachability(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var sizes []int
	for range 60 {
		sizes = append(sizes, 2+rng.Intn(8))
	}
	for _, n := range boundarySizes {
		sizes = append(sizes, n, n, n)
	}
	for trial, n := range sizes {
		vals := testVersions(rng, n)
		edges := randomDAG(rng, vals, rng.Intn(4*n+1))
		if trial%2 == 0 {
			// The initial-state rule: nil precedes every version.
			for _, v := range vals {
				edges = append(edges, [2]int{nilVer, v})
			}
		}
		before, _ := bothGraphs(vals, edges)
		g := checkAgainstReference(t, vals, edges)
		if g == nil {
			t.Fatalf("trial %d: random DAG reported cyclic", trial)
		}
		after, _ := bothGraphs(vals, denseEdges(g))
		if !maps.Equal(closure(before), closure(after)) {
			t.Fatalf("trial %d (%d versions): reduction changed reachability", trial, n)
		}
		// And it must be minimal: removing any remaining edge changes
		// reachability.
		for u, outs := range after {
			for v := range outs {
				delete(outs, v)
				broken := !reachable(after, u, v)
				outs[v] = true
				if !broken {
					t.Fatalf("trial %d: edge %s->%s survives but is redundant", trial, verName(u), verName(v))
				}
			}
		}
	}
}

// TestCyclicWitnessMatchesReference: on cyclic graphs the dense check
// must report the reference's witness cycle, version for version.
func TestCyclicWitnessMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	sizes := []int{2, 3, 5, 9}
	for _, n := range boundarySizes {
		sizes = append(sizes, n, n, n)
	}
	for trial, n := range sizes {
		vals := testVersions(rng, n)
		edges := randomDAG(rng, vals, 1+rng.Intn(4*n))
		// Reverse one edge's direction too: a cycle through it.
		back := edges[rng.Intn(len(edges))]
		if back[0] == back[1] {
			back = [2]int{vals[0], vals[1]}
			edges = append(edges, back)
		}
		edges = append(edges, [2]int{back[1], back[0]})
		if trial%2 == 0 {
			for _, v := range vals {
				edges = append(edges, [2]int{nilVer, v})
			}
		}
		if g := checkAgainstReference(t, vals, edges); g != nil {
			t.Fatalf("trial %d: graph with a reversed edge reported acyclic", trial)
		}
	}
}

// FuzzVersionOrder decodes the input into a version graph and checks
// the dense cycle check and reduction against the reference. Byte 0
// picks the version count (nilVer plus negative and positive values),
// byte 1's low bit orients every edge forward so the graph is acyclic,
// and each following byte pair is one edge, up to maxFuzzEdges (the
// reference reduction is quadratic in the edge count).
func FuzzVersionOrder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 0, 0, 1, 1, 2, 2, 0})
	for _, n := range boundarySizes {
		seed := []byte{byte(n - 1), 1}
		for i := range 3 * n {
			seed = append(seed, byte(i), byte(i*7+3))
		}
		f.Add(seed)
		f.Add(append([]byte{byte(n - 1), 0}, seed[2:]...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, forward := 1, false
		if len(data) >= 2 {
			n, forward, data = 1+int(data[0]), data[1]&1 == 1, data[2:]
		}
		vals := make([]int, n)
		vals[0] = nilVer
		for i := 1; i < n; i++ {
			vals[i] = 3*i - n
		}
		const maxFuzzEdges = 512
		data = data[:min(len(data), 2*maxFuzzEdges)]
		var edges [][2]int
		for ; len(data) >= 2; data = data[2:] {
			a, b := int(data[0])%n, int(data[1])%n
			if forward && a > b {
				a, b = b, a
			}
			edges = append(edges, [2]int{vals[a], vals[b]})
		}
		g := checkAgainstReference(t, vals, edges)
		if forward && g == nil {
			t.Fatal("forward-only graph reported cyclic")
		}
	})
}

// closure lists every (u, v) with v reachable from u.
func closure(vg map[int]map[int]bool) map[[2]int]bool {
	out := map[[2]int]bool{}
	for u := range vg {
		stack := []int{u}
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for v := range vg[x] {
				if !out[[2]int{u, v}] {
					out[[2]int{u, v}] = true
					stack = append(stack, v)
				}
			}
		}
	}
	return out
}

func reachable(vg map[int]map[int]bool, from, to int) bool {
	seen := map[int]bool{from: true}
	stack := []int{from}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for v := range vg[u] {
			if v == to {
				return true
			}
			if !seen[v] {
				seen[v] = true
				stack = append(stack, v)
			}
		}
	}
	return false
}
