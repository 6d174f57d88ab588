package scenario

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/workload"
)

// expandChaos turns the chaos knobs into concrete fault events over
// [0, horizon), drawing every choice (victim node, window position, window
// length) from the partition's isolated chaos streams. The schedule is a
// pure function of (partition seed, chaos config, nodes, horizon).
func expandChaos(part *workload.Partition, c Chaos, nodes int, horizon sim.Time) []Event {
	if !c.enabled() || horizon <= 0 {
		return nil
	}
	// Windows are clamped to a quarter of the horizon so one chaos config
	// scales from nanosecond-scale block-level traces to millisecond
	// flow-level runs without a single flap swallowing the whole schedule.
	maxDur := horizon / 4
	if maxDur < 1 {
		maxDur = 1
	}
	clamp := func(d sim.Time) sim.Time {
		if d > maxDur {
			return maxDur
		}
		if d < 1 {
			return 1
		}
		return d
	}
	var events []Event
	flaps := part.Stream("flaps")
	for i := 0; i < c.LinkFlaps; i++ {
		node := flaps.Intn(nodes)
		dur := clamp(uniformTime(flaps, c.FlapMin, c.FlapMax))
		at := uniformTime(flaps, 0, horizon-dur)
		events = append(events, Event{
			Kind: LinkDown, Node: node, At: at, Until: at + dur,
		})
	}
	bursts := part.Stream("bursts")
	for i := 0; i < c.CorruptBursts; i++ {
		node := bursts.Intn(nodes)
		dur := clamp(uniformTime(bursts, c.BurstMin, c.BurstMax))
		at := uniformTime(bursts, 0, horizon-dur)
		events = append(events, Event{
			Kind: CorruptBurst, Node: node, At: at, Until: at + dur,
			OneIn: c.CorruptOneIn, Prob: c.CorruptProb,
		})
	}
	return events
}

// uniformTime draws uniformly from [lo, hi]; degenerate ranges return lo.
func uniformTime(r *workload.Rand, lo, hi sim.Time) sim.Time {
	if hi <= lo {
		return lo
	}
	return lo + sim.Time(r.Float64()*float64(hi-lo))
}

// sortEvents orders events by (At, Kind, Node) for deterministic replay.
func sortEvents(events []Event) {
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Node < b.Node
	})
}

// outageWindows derives per-node outage intervals from the event list,
// split by flow-level consequence: flaps (LinkDown) are recoverable — a
// dual-ToR survivor plane can carry the op once the loss is detected —
// while absences (NodeLeave's permanent departure, NodeJoin's pre-join
// window) have no survivor, so their ops are always dropped.
type interval struct{ start, end sim.Time }

const forever = sim.Time(1) << 62

func outageWindows(events []Event) (flaps, absent map[int][]interval) {
	flaps, absent = map[int][]interval{}, map[int][]interval{}
	for _, e := range events {
		switch e.Kind {
		case LinkDown:
			flaps[e.Node] = append(flaps[e.Node], interval{e.At, e.Until})
		case NodeLeave:
			absent[e.Node] = append(absent[e.Node], interval{e.At, forever})
		case NodeJoin:
			absent[e.Node] = append(absent[e.Node], interval{0, e.At})
		}
	}
	for _, m := range []map[int][]interval{flaps, absent} {
		for n := range m {
			iv := m[n]
			sortIntervals(iv)
			m[n] = mergeIntervals(iv)
		}
	}
	return flaps, absent
}

// darkWindows merges each of nodes' flap windows, and with absences its
// leave/join absences too, into the sorted, disjoint windows in which its
// link is dark.
func darkWindows(events []Event, nodes int, absences bool) map[int][]interval {
	flaps, absent := outageWindows(events)
	down := make(map[int][]interval, nodes)
	for n := 0; n < nodes; n++ {
		iv := append([]interval(nil), flaps[n]...)
		if absences {
			iv = append(iv, absent[n]...)
		}
		sortIntervals(iv)
		down[n] = mergeIntervals(iv)
	}
	return down
}

func sortIntervals(iv []interval) {
	sort.Slice(iv, func(i, j int) bool { return iv[i].start < iv[j].start })
}

// mergeIntervals coalesces overlapping or touching intervals; input must be
// sorted by start.
func mergeIntervals(iv []interval) []interval {
	if len(iv) <= 1 {
		return iv
	}
	out := iv[:1]
	for _, w := range iv[1:] {
		last := &out[len(out)-1]
		if w.start <= last.end {
			if w.end > last.end {
				last.end = w.end
			}
			continue
		}
		out = append(out, w)
	}
	return out
}

// lookup returns the interval covering t, if any.
func covering(iv []interval, t sim.Time) (interval, bool) {
	for _, w := range iv {
		if t >= w.start && t < w.end {
			return w, true
		}
	}
	return interval{}, false
}
