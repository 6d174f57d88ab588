package scenario

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/edm"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// PhaseReport summarizes one load phase's completions (grouped by the phase
// that issued the op).
type PhaseReport struct {
	Name     string
	Start    sim.Time // first possible arrival of the phase
	End      sim.Time // end of the phase's arrival window
	Issued   int
	Done     int
	AbsNs    stats.Summary // absolute completion latency, ns
	Norm     stats.Summary // latency / unloaded ideal (netsim backend only)
	Corrupt  int           // ops hit by corruption in this phase
	Failover int           // ops rerouted around a dead link in this phase
	Dropped  int           // ops lost to dead links / leave / join
	// Wire, on the live backend, is the reliable layer's activity during
	// the phase: deltas of the transport counters snapshotted at phase
	// boundaries. Nil on the other backends.
	Wire *WireDelta
}

// WireDelta is the transport activity attributed to one phase of a live
// run (counter differences between the phase's boundary snapshots).
type WireDelta struct {
	Sent        uint64 // datagrams transmitted (retransmissions included)
	Retransmits uint64
	Timeouts    uint64 // ops that exhausted their retry budget
	Dropped     uint64 // datagrams the fault hook dropped
	Corrupted   uint64 // datagrams the fault hook corrupted
}

// Report is a completed scenario run. All fields are deterministic
// functions of the Spec, so two runs with equal specs render byte-identical
// reports.
type Report struct {
	Scenario  string
	Backend   Backend
	Protocol  string
	Nodes     int
	Seed      uint64
	Horizon   sim.Time
	Issued    int
	Completed int
	Dropped   int
	// Mismatched counts, among Dropped, the live backends' reads whose data
	// was not what the replay wrote there.
	Mismatched int
	Failovers  int
	Corrupted  int
	Timeouts   uint64 // fabric backend: reads answered by NULL (§3.3)
	// Recovery summarizes fault-window ops in microseconds, one sample per
	// op that Failovers counts. On the netsim backend that is a rerouted op
	// that completed (one a drop burst discarded after its reroute counts
	// nowhere), and its sample is its deferral: how long after its intended
	// arrival it could be issued. On the other backends each sample is the
	// raw completion latency of an op that rode out a fault window (issued
	// inside it or within DetectDelay of its end) and still completed — the
	// latency tail the fault imposed.
	Recovery stats.Summary
	Events   int           // fault events applied (authored + chaos)
	Links    edm.LinkStats // fabric backend: aggregate link fault counters
	// Cluster is the live-cluster backend's map/replication summary; nil on
	// the other backends.
	Cluster *ClusterReport
	Phases  []PhaseReport
}

// ClusterReport summarizes the cluster layer of a live-cluster run.
type ClusterReport struct {
	MemNodes    int
	Extents     int
	ExtentBytes uint64
	FinalEpoch  uint64 // map epoch after all membership changes
	Failovers   uint64 // segments that survived on one replica or re-routed
	Rebalances  int    // re-mirror passes after membership steps, evictions and rejoins; none while a killed node awaits its leave step
	MovedBytes  uint64 // bytes copied to new extent holders
	LostExtents int    // extents whose every holder died (should be 0)
	Owed        int64  // extents not on their map pair in sync at the end (should be 0)
	// RecoveryUS summarizes, per pass, the virtual time from the failure
	// to full re-mirroring: the spec's DetectDelay plus the measured
	// rebalance duration (joins and the client's own evictions contribute
	// just the re-mirror).
	RecoveryUS stats.Summary
}

// opOutcome is how one op of a run ended, as the report counts it.
type opOutcome struct {
	completed bool     // done, without error
	latency   sim.Time // issue to completion, when completed
	// recovery is the op's sample for the recovery summary when it rode out
	// an outage and completed: its deferral on the netsim backend, its
	// latency on the others.
	recovery sim.Time
	norm     float64 // latency over the unloaded ideal; 0 = none
	// Fault exposure: the op arrived while an outage affecting it was active
	// (or within DetectDelay of its end), or during a corrupt burst.
	outage, corrupted bool
}

// exposure is the fault exposure of an op by its two endpoints' windows.
func exposure(op *workload.Op, down map[int][]interval, corrupt map[int][]probWindow, detect sim.Time) (outage, corrupted bool) {
	for _, n := range [2]int{op.Src, op.Dst} {
		for _, w := range down[n] {
			if op.Arrival >= w.start && op.Arrival < w.end+detect {
				outage = true
			}
		}
		if _, hit := coveringProb(corrupt, n, op.Arrival); hit {
			corrupted = true
		}
	}
	return outage, corrupted
}

// tally fills in the op counters, the recovery summary and the per-phase
// rows from the outcome of every op of the trace, so a report's totals are
// its phase rows' sums.
func (r *Report) tally(spec *Spec, bounds []interval, tagged []taggedOp, outcome func(i int) opOutcome) {
	prs := make([]PhaseReport, len(spec.Phases))
	absNs := make([][]float64, len(spec.Phases))
	norm := make([][]float64, len(spec.Phases))
	for i, ph := range spec.Phases {
		prs[i] = PhaseReport{Name: ph.Name, Start: bounds[i].start, End: bounds[i].end}
	}
	var recovery []float64
	for i, t := range tagged {
		ph := t.meta.phase
		pr := &prs[ph]
		pr.Issued++
		o := outcome(i)
		if o.corrupted {
			pr.Corrupt++
			r.Corrupted++
		}
		if !o.completed {
			// Timed-out reads, ops lost on a dead link, failed data checks.
			r.Dropped++
			pr.Dropped++
			continue
		}
		r.Completed++
		pr.Done++
		absNs[ph] = append(absNs[ph], o.latency.Nanoseconds())
		if o.norm > 0 {
			norm[ph] = append(norm[ph], o.norm)
		}
		if o.outage {
			// The op rode out a fault window and still completed.
			pr.Failover++
			r.Failovers++
			recovery = append(recovery, o.recovery.Microseconds())
		}
	}
	r.Recovery = stats.Summarize(recovery)
	for i := range prs {
		prs[i].AbsNs = stats.Summarize(absNs[i])
		prs[i].Norm = stats.Summarize(norm[i])
	}
	r.Phases = prs
}

// Format renders the report as an aligned text table.
func (r *Report) Format(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "scenario\t%s\n", r.Scenario)
	fmt.Fprintf(tw, "backend\t%s\n", r.Backend)
	if r.Backend == BackendNetsim {
		fmt.Fprintf(tw, "protocol\t%s\n", r.Protocol)
	}
	fmt.Fprintf(tw, "nodes\t%d\n", r.Nodes)
	fmt.Fprintf(tw, "seed\t%d\n", r.Seed)
	fmt.Fprintf(tw, "horizon\t%v\n", r.Horizon)
	fmt.Fprintf(tw, "fault events\t%d\n", r.Events)
	fmt.Fprintf(tw, "ops\tissued %d completed %d dropped %d", r.Issued, r.Completed, r.Dropped)
	if r.Mismatched > 0 {
		fmt.Fprintf(tw, " mismatched %d", r.Mismatched)
	}
	fmt.Fprintln(tw)
	fmt.Fprintf(tw, "faults\tfailovers %d corrupted %d timeouts %d\n",
		r.Failovers, r.Corrupted, r.Timeouts)
	if r.Links.Sent+r.Links.Dropped > 0 {
		fmt.Fprintf(tw, "link blocks\tsent %d dropped %d corrupted %d\n",
			r.Links.Sent, r.Links.Dropped, r.Links.Corrupted)
	}
	if r.Recovery.N > 0 {
		fmt.Fprintf(tw, "recovery (us)\t%s\n", r.Recovery.Row())
	}
	if c := r.Cluster; c != nil {
		fmt.Fprintf(tw, "cluster\tmem nodes %d extents %d x %d B epoch %d\n",
			c.MemNodes, c.Extents, c.ExtentBytes, c.FinalEpoch)
		fmt.Fprintf(tw, "cluster faults\tfailovers %d rebalances %d moved %d B lost %d owed %d\n",
			c.Failovers, c.Rebalances, c.MovedBytes, c.LostExtents, c.Owed)
		if c.RecoveryUS.N > 0 {
			fmt.Fprintf(tw, "cluster recovery (us)\t%s\n", c.RecoveryUS.Row())
		}
	}
	for _, p := range r.Phases {
		fmt.Fprintf(tw, "phase %s\t[%v, %v) issued %d done %d corrupt %d failover %d dropped %d\n",
			p.Name, p.Start, p.End, p.Issued, p.Done, p.Corrupt, p.Failover, p.Dropped)
		if p.AbsNs.N > 0 {
			fmt.Fprintf(tw, "  latency (ns)\t%s\n", p.AbsNs.Row())
		}
		if p.Norm.N > 0 {
			fmt.Fprintf(tw, "  normalized\t%s\n", p.Norm.Row())
		}
		if p.Wire != nil {
			fmt.Fprintf(tw, "  wire\tsent %d retransmits %d timeouts %d dropped %d corrupted %d\n",
				p.Wire.Sent, p.Wire.Retransmits, p.Wire.Timeouts, p.Wire.Dropped, p.Wire.Corrupted)
		}
	}
	return tw.Flush()
}
