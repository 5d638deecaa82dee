// Critical-path analysis over an assembled span tree: the operator
// questions a trace exists to answer. BuildTree resolves parent
// linkage into a tree, CriticalPath walks backward from the last
// finisher to the spans that gated the run's wall time, and SelfNS
// splits a span's duration into own work vs time covered by children
// — the inputs for straggler attribution and per-phase self/child
// accounting in fsctstats trace.

package trace

import (
	"slices"
	"sort"
)

// Node is one span resolved into the trace's tree, children ordered
// by start offset.
type Node struct {
	Span     *Span
	Children []*Node
}

// BuildTree links spans (as returned by Assemble or ReadOTLP) into a
// tree and returns the root: the first span whose parent is absent
// from the set. Later parentless spans and spans whose parent is
// missing — possible in truncated traces — attach under the root so
// no span is silently lost. Returns nil on an empty slice.
func BuildTree(spans []Span) *Node {
	if len(spans) == 0 {
		return nil
	}
	nodes := make([]*Node, len(spans))
	byID := make(map[SpanID]*Node, len(spans))
	for i := range spans {
		nodes[i] = &Node{Span: &spans[i]}
		byID[spans[i].ID] = nodes[i]
	}
	var root *Node
	for i, n := range nodes {
		p := spans[i].Parent
		if parent, ok := byID[p]; ok && parent != n && !p.IsZero() {
			parent.Children = append(parent.Children, n)
			continue
		}
		if root == nil {
			root = n
		} else {
			root.Children = append(root.Children, n)
		}
	}
	var order func(n *Node)
	order = func(n *Node) {
		sort.SliceStable(n.Children, func(i, j int) bool {
			return n.Children[i].Span.StartNS < n.Children[j].Span.StartNS
		})
		for _, c := range n.Children {
			order(c)
		}
	}
	if root != nil {
		order(root)
	}
	return root
}

// Step is one span on the critical path and its depth below the root
// (the root is at depth 0).
type Step struct {
	*Node
	Depth int
}

// CriticalPath returns the spans that bound the trace's wall time, root
// first, in depth-first order. Below each span on the path, its
// children's chain is found by walking backward from the child that
// finished last (ties toward the later start): the next span back is
// the sibling that finished last among those that ended no later than
// the current one started — the work the current one waited for. The
// chain is listed in time order and each of its spans is expanded the
// same way. Sequential phases therefore all appear, and the longest of
// them is the one worth shortening; a sibling that overlaps the chain
// does not appear, since shortening it cannot finish the run earlier.
// Returns nil on a nil root.
func CriticalPath(root *Node) []Step {
	if root == nil {
		return nil
	}
	var path []Step
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		path = append(path, Step{Node: n, Depth: depth})
		for _, c := range chain(n.Children) {
			walk(c, depth+1)
		}
	}
	walk(root, 0)
	return path
}

// chain runs the backward walk over one span's children and returns
// the chain earliest first.
func chain(kids []*Node) []*Node {
	byEnd := append([]*Node(nil), kids...)
	sort.SliceStable(byEnd, func(i, j int) bool {
		a, b := byEnd[i].Span, byEnd[j].Span
		if a.EndNS != b.EndNS {
			return a.EndNS < b.EndNS
		}
		return a.StartNS < b.StartNS
	})
	var out []*Node
	for i := len(byEnd) - 1; i >= 0; {
		cur := byEnd[i]
		out = append(out, cur)
		i--
		for i >= 0 && byEnd[i].Span.EndNS > cur.Span.StartNS {
			i--
		}
	}
	slices.Reverse(out)
	return out
}

// SelfNS returns the span's self time: its duration minus the union
// of its children's intervals (clamped to the span, overlaps counted
// once). For a phase, this is the time the phase spent outside its
// instrumented sub-spans — merge work, serialization, scheduling.
func SelfNS(n *Node) int64 {
	if n == nil {
		return 0
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(n.Children))
	for _, c := range n.Children {
		lo, hi := c.Span.StartNS, c.Span.EndNS
		if lo < n.Span.StartNS {
			lo = n.Span.StartNS
		}
		if hi > n.Span.EndNS {
			hi = n.Span.EndNS
		}
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered int64
	var curLo, curHi int64
	for i, v := range ivs {
		if i == 0 || v.lo > curHi {
			covered += curHi - curLo
			curLo, curHi = v.lo, v.hi
			continue
		}
		if v.hi > curHi {
			curHi = v.hi
		}
	}
	covered += curHi - curLo
	self := n.Span.DurNS() - covered
	if self < 0 {
		self = 0
	}
	return self
}
