package bfsproto

import (
	"fmt"

	"lcshortcut/internal/congest"
)

type aggUpMsg struct{ v int64 }

func (aggUpMsg) Bits() int { return 64 }

type aggDownMsg struct{ v int64 }

func (aggDownMsg) Bits() int { return 64 }

// AggregatePhase performs a global convergecast of per-node values over the
// BFS tree using an associative, commutative combiner, followed by a
// broadcast of the result — the standard O(D)-round "compute a global
// function" primitive. All nodes must enter aligned at the same round and
// leave aligned 2·depth(T)+3 rounds later, each holding the global value.
//
// All traffic flows over tree arcs, so the phase reads its inbox through the
// engine's InboxArc fast path (parent arc + child arcs) instead of
// materializing per-round message slices. The narrowing is deliberate:
// traffic a desynchronized protocol leaks onto non-tree arcs during the
// aggregate window is no longer detected as an "unexpected payload" (wrong
// payload types on the tree arcs still are) — alignment is the composition
// contract, and the golden tests pin it. Between its own
// actions a node waits in StepUntil: for mail or its report round h−depth,
// then for mail or the phase end.
func AggregatePhase(ctx congest.Net, info *Info, local int64, combine func(a, b int64) int64) (int64, error) {
	h := info.Height
	acc := local
	childReports := 0
	result := int64(0)
	haveResult := false
	deliver := func() {
		haveResult = true
		for _, ka := range info.ChildArcs {
			ctx.SendArc(ka, aggDownMsg{v: result})
		}
	}
	start := ctx.Round()
	for k := 0; ; k = ctx.Round() - start {
		if k > 0 {
			if info.ParentArc != -1 {
				if p, ok := ctx.InboxArc(info.ParentArc); ok {
					msg, ok := p.(aggDownMsg)
					if !ok {
						return 0, fmt.Errorf("bfsproto: unexpected payload %T in aggregate", p)
					}
					result = msg.v
					deliver()
				}
			}
			for _, ka := range info.ChildArcs {
				p, ok := ctx.InboxArc(ka)
				if !ok {
					continue
				}
				msg, ok := p.(aggUpMsg)
				if !ok {
					return 0, fmt.Errorf("bfsproto: unexpected payload %T in aggregate", p)
				}
				childReports++
				acc = combine(acc, msg.v)
			}
		}
		if k == h-info.Depth {
			if childReports != len(info.Children) {
				return 0, fmt.Errorf("bfsproto: node %d aggregate: %d of %d child reports",
					ctx.ID(), childReports, len(info.Children))
			}
			if info.ParentArc != -1 {
				ctx.SendArc(info.ParentArc, aggUpMsg{v: acc})
			} else {
				result = acc
				deliver()
			}
		}
		if k >= 2*h+2 {
			break
		}
		next := 2*h + 2
		if k < h-info.Depth {
			next = h - info.Depth
		}
		ctx.StepUntil(start + next)
	}
	if !haveResult {
		return 0, fmt.Errorf("bfsproto: node %d finished aggregate without a result", ctx.ID())
	}
	return result, nil
}

// MaxPhase aggregates the global maximum of per-node values.
func MaxPhase(ctx congest.Net, info *Info, local int64) (int64, error) {
	return AggregatePhase(ctx, info, local, func(a, b int64) int64 {
		if a > b {
			return a
		}
		return b
	})
}

// SumPhase aggregates the global sum of per-node values.
func SumPhase(ctx congest.Net, info *Info, local int64) (int64, error) {
	return AggregatePhase(ctx, info, local, func(a, b int64) int64 { return a + b })
}

// OrPhase aggregates a global boolean OR.
func OrPhase(ctx congest.Net, info *Info, local bool) (bool, error) {
	l := int64(0)
	if local {
		l = 1
	}
	v, err := AggregatePhase(ctx, info, l, func(a, b int64) int64 { return a | b })
	return v != 0, err
}
