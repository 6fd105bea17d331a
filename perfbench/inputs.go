package main

import (
	"fmt"
	"math/rand"

	"neutrality/internal/graph"
	"neutrality/internal/measure"
	"neutrality/internal/synth"
	"neutrality/internal/topo"
)

// Packet-count model for the generated streams: every vantage point
// sends perVP±jitter packets per path and interval, each lost with
// probability congestedLoss when the path is congested in that
// interval and baselineLoss otherwise — synth.ToMeasurements' model,
// split across many senders.
const (
	jitterFrac    = 0.2
	congestedLoss = 0.05
	baselineLoss  = 0.001
	policerGap    = 0.4 // class-c2 excess of each planted policer
)

// stream is one workload's input: the serving topology, the links the
// generator made non-neutral, and the records in send order.
type stream struct {
	net      *graph.Network
	policers []string
	recs     []measure.StreamRecord
}

// vantageRecords draws the per-interval path states from ground truth
// perf and expands every (interval, source, path) into one record.
// Records are ordered by interval, then source, then path, so every
// source's sequence numbers increase along the stream.
func vantageRecords(n *graph.Network, perf graph.Perf, seed int64, intervals int, sources []string, perVP int) []measure.StreamRecord {
	states := synth.NewSampler(n, perf, seed).SampleIntervals(intervals)
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	jit := int(jitterFrac * float64(perVP))
	paths := n.NumPaths()
	recs := make([]measure.StreamRecord, 0, intervals*len(sources)*paths)
	seq := make([]int64, len(sources))
	for t := range intervals {
		for v, src := range sources {
			for p := range paths {
				sent := perVP + rng.Intn(2*jit+1) - jit
				frac := baselineLoss
				if states[t][p] {
					frac = congestedLoss
				}
				lost := 0
				for range sent {
					if rng.Float64() < frac {
						lost++
					}
				}
				seq[v]++
				recs = append(recs, measure.StreamRecord{
					Source: src, Seq: seq[v], Interval: t, Path: p, Sent: sent, Lost: lost,
				})
			}
		}
	}
	return recs
}

func sourceNames(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%03d", prefix, i)
	}
	return out
}

// backboneStream is the leaf-history input: topology B's measured
// network (16 paths) with its three policers regulating class c2,
// reported by vps vantage points.
func backboneStream(seed int64, intervals, vps, perVP int) stream {
	b := topo.NewTopologyB()
	n := b.InferenceNet
	perf := graph.NewPerf(n.NumLinks(), n.NumClasses())
	for l := range n.NumLinks() {
		perf.SetNeutral(graph.LinkID(l), 0.01)
	}
	var names []string
	for _, l := range b.Policers {
		perf.Set(l, topo.C1, 0.02)
		perf.Set(l, topo.C2, 0.02+policerGap)
		names = append(names, n.Link(l).Name)
	}
	return stream{net: n, policers: names, recs: vantageRecords(n, perf, seed, intervals, sourceNames("vp", vps), perVP)}
}

// figure4Streams is the tree-ingest input: Figure 4's four paths with
// link l1 policing class c2, one stream per leaf over disjoint source
// sets that report the same intervals.
func figure4Streams(seed int64, leaves, intervals, vpsPerLeaf, perVP int) (*graph.Network, []string, [][]measure.StreamRecord) {
	n := topo.Figure4()
	perf := graph.NewPerf(n.NumLinks(), n.NumClasses())
	for l := range n.NumLinks() {
		perf.SetNeutral(graph.LinkID(l), 0.02)
	}
	l1, _ := n.LinkByName("l1")
	perf.Set(l1.ID, topo.C1, 0.05)
	perf.Set(l1.ID, topo.C2, 0.7)
	out := make([][]measure.StreamRecord, leaves)
	for i := range out {
		out[i] = vantageRecords(n, perf, seed, intervals, sourceNames(fmt.Sprintf("leaf%d-vp", i), vpsPerLeaf), perVP)
	}
	return n, []string{"l1"}, out
}
