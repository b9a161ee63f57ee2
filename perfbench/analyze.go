package main

import (
	"fmt"
	"sort"
	"strings"

	"clash/internal/overlay"
)

// layerTimes are the span medians the budget adds up, in µs.
type layerTimes struct {
	clientSelf, wire, handle float64
	// callsPerPublish is how many accept frames one client call sends.
	callsPerPublish float64
}

// analyzeSpans turns a traced run's spans into per-layer metrics. Spans that
// start before tracedFrom belong to the set-up (registrations, replica
// pushes, ring maintenance); the rest to the traced window, in which ops
// objects were acknowledged by publishes client calls.
func analyzeSpans(m metricSet, spans []span, tracedFrom int64, batch bool, ops float64, publishes int64) layerTimes {
	accept := overlay.TypeAcceptObject
	if batch {
		accept = overlay.TypeAcceptBatch
	}
	acceptIdx := msgTypeIndex[accept]
	publishSpans := map[uint64]span{}
	childNs := map[uint64][][2]int64{}
	handleByReq := map[uint64]span{}
	callNs := map[string][]int64{}
	handleNs := map[string][]int64{}
	var register, push, replicaHandle []int64
	var replicaPushes, replicaBytes float64
	chordSetup := map[string]float64{}
	for _, s := range spans {
		if s.start < tracedFrom {
			switch {
			case s.kind == kindRegister:
				register = append(register, s.dur())
			case s.kind == kindCall && msgTypes[s.typ] == overlay.TypeReplicateKeyGroup:
				replicaPushes++
				replicaBytes += float64(s.bytes)
			case s.kind == kindHandle && msgTypes[s.typ] == overlay.TypeReplicateKeyGroup:
				replicaHandle = append(replicaHandle, s.dur())
			case s.kind == kindCall && strings.HasPrefix(msgTypes[s.typ], "chord."):
				chordSetup[shortType(msgTypes[s.typ])]++
			}
			continue
		}
		switch s.kind {
		case kindPublish:
			publishSpans[s.id] = s
		case kindCall:
			t := shortType(msgTypes[s.typ])
			callNs[t] = append(callNs[t], s.dur())
			if s.parent != 0 {
				childNs[s.parent] = append(childNs[s.parent], [2]int64{s.start, s.end})
			}
			if s.side != sideClient && msgTypes[s.typ] == overlay.TypeMatch {
				push = append(push, s.dur())
			}
		case kindHandle:
			t := shortType(msgTypes[s.typ])
			handleNs[t] = append(handleNs[t], s.dur())
			if s.typ == acceptIdx {
				handleByReq[s.req] = s
			}
		}
	}

	var self []int64
	var frames float64
	for id, p := range publishSpans {
		self = append(self, p.dur()-covered(childNs[id]))
	}
	var wire []int64
	for _, s := range spans {
		if s.start < tracedFrom || s.kind != kindCall || s.side != sideClient || s.typ != acceptIdx {
			continue
		}
		frames++
		if h, ok := handleByReq[s.req]; ok {
			wire = append(wire, s.dur()-h.dur())
		}
	}

	var lt layerTimes
	lt.clientSelf, _ = setP(m, "client.self_us", self)
	lt.wire, _ = setP(m, "transport.wire_us", wire)
	lt.handle, _ = nsQuantiles(append([]int64(nil), handleNs[shortType(accept)]...))
	lt.callsPerPublish = ratio(frames, float64(publishes))
	m.set("transport.accept_frames_per_call", lt.callsPerPublish, "count")
	m.set("transport.wire_pairs", float64(len(wire)), "count")
	setP(m, "client.register_us", register)
	for t, v := range callNs {
		setP(m, "transport.call_us."+t, v)
	}
	for t, v := range handleNs {
		var busy int64
		for _, d := range v {
			busy += d
		}
		setP(m, "node.handle_us."+t, v)
		m.set("node.busy_s."+t, float64(busy)/1e9, "s")
		m.set("node.calls."+t, float64(len(v)), "count")
	}
	setP(m, "delivery.push_us", push)
	m.set("delivery.pushes_per_op", ratio(float64(len(push)), ops), "count")
	m.set("replica.pushes", replicaPushes, "count")
	m.set("replica.push_bytes", replicaBytes, "B")
	setP(m, "replica.handle_us", replicaHandle)
	for t, n := range chordSetup {
		m.set("chord.calls."+t, n, "count")
	}
	return lt
}

// setP sets name.p50 and name.p99 in µs from ns samples.
func setP(m metricSet, name string, ns []int64) (p50, p99 float64) {
	p50, p99 = nsQuantiles(ns)
	m.set(name+".p50", p50, "us")
	m.set(name+".p99", p99, "us")
	return p50, p99
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
			continue
		}
		cur[1] = max(cur[1], x[1])
	}
	return total + cur[1] - cur[0]
}

// budget prints ROADMAP 1(a)'s publish budget: the untraced end-to-end
// publish median against client self + wire + node handle, and the handle
// against codec + core + cq from the layer replay.
func budget(m metricSet, publishP50 float64, lt layerTimes, r replayTimes) {
	explained := lt.clientSelf + lt.callsPerPublish*(lt.wire+lt.handle)
	remainder := publishP50 - explained
	layers := r.codecUs + r.coreUs + r.cqUs
	m.set("budget.remainder_us", remainder, "us")
	m.set("budget.handle_remainder_us", lt.handle-layers, "us")
	fmt.Println("publish budget (µs, medians; traced spans and layer replay):")
	fmt.Printf("  end-to-end client call (untraced)  %10.2f\n", publishP50)
	fmt.Printf("    client self                      %10.2f\n", lt.clientSelf)
	fmt.Printf("    wire (call - handle) x %4.2f      %10.2f\n", lt.callsPerPublish, lt.callsPerPublish*lt.wire)
	fmt.Printf("    node handle x %4.2f               %10.2f\n", lt.callsPerPublish, lt.callsPerPublish*lt.handle)
	fmt.Printf("    remainder                        %10.2f\n", remainder)
	fmt.Printf("  node handle per frame              %10.2f\n", lt.handle)
	fmt.Printf("    codec (request decode, reply encode) %6.2f\n", r.codecUs)
	fmt.Printf("    core                             %10.2f\n", r.coreUs)
	fmt.Printf("    cq                               %10.2f\n", r.cqUs)
	fmt.Printf("    remainder                        %10.2f\n", lt.handle-layers)
}
