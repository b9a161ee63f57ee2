package main

import (
	"fmt"
	"runtime"
	"time"

	"clash/internal/bitkey"
	"clash/internal/core"
	"clash/internal/cq"
	"clash/internal/overlay"
	"clash/internal/wirecodec"
)

// replayTimes are the per-frame layer costs the handle budget adds up, µs.
type replayTimes struct {
	codecUs, coreUs, cqUs float64
}

// replayMinTime is how long each replayed layer runs at least, repeating
// its inputs, so its ns per item is a stable mean.
const replayMinTime = 200 * time.Millisecond

// measure runs fn (one pass over items inputs) until replayMinTime has
// passed and returns ns and heap allocations per item.
func measure(items int, fn func()) (nsPerItem, allocsPerItem float64) {
	if items == 0 {
		return 0, 0
	}
	fn() // first pass warms caches and pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	passes := 0
	for time.Since(start) < replayMinTime {
		fn()
		passes++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(items * passes)
	return float64(elapsed.Nanoseconds()) / n, float64(after.Mallocs-before.Mallocs) / n
}

// replayItem is one captured data object with the node that owns its key.
type replayItem struct {
	msg   core.AcceptObjectMsg
	key   bitkey.Key
	ev    cq.Event
	owner *overlay.Node
}

// replayLayers replays the traced window's captured frames through the
// public codec, core, cq and router functions on the quiesced cluster and
// records ns and allocations per item. Core counters must be read before it
// runs: HandleAcceptObject moves them.
func replayLayers(m metricSet, cl *cluster, captured map[string][][]byte, batch bool) (replayTimes, error) {
	var r replayTimes
	var items []replayItem
	var frames [][]int // item indexes per captured frame
	addObj := func(o core.AcceptObjectMsg) error {
		key, err := bitkey.New(o.KeyValue, o.KeyBits)
		if err != nil {
			return err
		}
		attrs, err := decodeAttrs(o.Payload)
		if err != nil {
			return err
		}
		var owner *overlay.Node
		for _, n := range cl.nodes {
			if _, ok := n.Server().ManagesKey(key); ok {
				owner = n
			}
		}
		if owner == nil {
			return fmt.Errorf("replay: no node manages key %v", key)
		}
		// The captured payload is a private copy, so the decoded message
		// may keep aliasing it.
		items = append(items, replayItem{msg: o, key: key, ev: cq.Event{Key: key, Attrs: attrs}, owner: owner})
		return nil
	}

	if !batch {
		reqs, codecUs, err := replayCodec[core.AcceptObjectMsg, core.AcceptObjectReplyMsg](m, "accept_object", captured, overlay.TypeAcceptObject)
		if err != nil {
			return r, err
		}
		r.codecUs = codecUs
		for _, o := range reqs {
			if err := addObj(o); err != nil {
				return r, err
			}
			frames = append(frames, []int{len(items) - 1})
		}
	} else {
		reqs, codecUs, err := replayCodec[core.AcceptBatchMsg, core.AcceptBatchReplyMsg](m, "accept_batch", captured, overlay.TypeAcceptBatch)
		if err != nil {
			return r, err
		}
		r.codecUs = codecUs
		for _, b := range reqs {
			var idx []int
			for _, o := range b.Objects {
				if err := addObj(o); err != nil {
					return r, err
				}
				idx = append(idx, len(items)-1)
			}
			frames = append(frames, idx)
		}

		// One HandleAcceptObjectBatch per captured frame on the node that
		// owns its keys.
		type frameIn struct {
			srv    *core.Server
			keys   []bitkey.Key
			depths []int
		}
		var fins []frameIn
		for _, idx := range frames {
			f := frameIn{srv: items[idx[0]].owner.Server()}
			for _, i := range idx {
				f.keys = append(f.keys, items[i].key)
				f.depths = append(f.depths, items[i].msg.Depth)
			}
			fins = append(fins, f)
		}
		bNs, bAllocs := measure(len(fins), func() {
			for _, f := range fins {
				f.srv.HandleAcceptObjectBatch(f.keys, f.depths)
			}
		})
		perFrame := ratio(float64(len(items)), float64(len(frames)))
		m.set("core.accept_batch_ns_per_item", ratio(bNs, perFrame), "ns")
		m.set("core.accept_batch_allocs_per_item", ratio(bAllocs, perFrame), "count")
		r.coreUs = bNs / 1e3
	}

	srvs := make([]*core.Server, len(items))
	engines := make([]*cq.Engine, len(items))
	for i := range items {
		srvs[i] = items[i].owner.Server()
		engines[i] = items[i].owner.Engine()
	}
	aNs, aAllocs := measure(len(items), func() {
		for i := range items {
			_, _ = srvs[i].HandleAcceptObject(items[i].key, items[i].msg.Depth)
		}
	})
	m.set("core.accept_ns", aNs, "ns")
	m.set("core.accept_allocs", aAllocs, "count")
	var matched int
	for i := range items {
		matched += len(engines[i].Match(items[i].ev))
	}
	qNs, qAllocs := measure(len(items), func() {
		for i := range items {
			engines[i].Match(items[i].ev)
		}
	})
	m.set("cq.match_ns", qNs, "ns")
	m.set("cq.match_allocs", qAllocs, "count")
	m.set("cq.matches_per_op", ratio(float64(matched), float64(len(items))), "count")
	router := cl.client.Router()
	rNs, rAllocs := measure(len(items), func() {
		for i := range items {
			router.Route(items[i].key)
		}
	})
	m.set("client.route_ns", rNs, "ns")
	m.set("client.route_allocs", rAllocs, "count")
	m.set("replay.items", float64(len(items)), "count")

	perFrame := ratio(float64(len(items)), float64(len(frames)))
	if !batch {
		r.coreUs = aNs / 1e3
	}
	r.cqUs = qNs * perFrame / 1e3
	return r, nil
}

// wirePtr is a pointer to a wire message whose codec the replay times.
type wirePtr[T any] interface {
	*T
	MarshalWire([]byte) []byte
	UnmarshalWire([]byte) error
}

// replayCodec decodes the captured request and reply frames of message type
// typ, records the codec metrics of name and name_reply, and returns the
// decoded requests and the codec µs a node spends per frame: unmarshalling
// the request and marshalling the reply.
func replayCodec[Req, Rep any, PReq wirePtr[Req], PRep wirePtr[Rep]](m metricSet, name string, captured map[string][][]byte, typ string) ([]Req, float64, error) {
	reqFrames, repFrames := captured[typ], captured[typ+".reply"]
	reqs, err := decodeFrames[Req, PReq](reqFrames)
	if err != nil {
		return nil, 0, err
	}
	reps, err := decodeFrames[Rep, PRep](repFrames)
	if err != nil {
		return nil, 0, err
	}
	unNs, _ := codecCost[Req, PReq](m, name, reqFrames, reqs)
	_, mNs := codecCost[Rep, PRep](m, name+"_reply", repFrames, reps)
	return reqs, (unNs + mNs) / 1e3, nil
}

func decodeFrames[T any, P wirePtr[T]](frames [][]byte) ([]T, error) {
	out := make([]T, len(frames))
	for i, p := range frames {
		if err := P(&out[i]).UnmarshalWire(p); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// codecCost times UnmarshalWire over captured frames and MarshalWire over
// their decoded messages, records both as name's codec metrics and returns
// ns per frame of each.
func codecCost[T any, P wirePtr[T]](m metricSet, name string, frames [][]byte, decoded []T) (unNs, mNs float64) {
	var sink T
	unNs, unAllocs := measure(len(frames), func() {
		for _, p := range frames {
			_ = P(&sink).UnmarshalWire(p)
		}
	})
	var buf []byte
	mNs, mAllocs := measure(len(decoded), func() {
		for i := range decoded {
			buf = P(&decoded[i]).MarshalWire(buf[:0])
		}
	})
	m.set("codec.unmarshal_ns."+name, unNs, "ns")
	m.set("codec.unmarshal_allocs."+name, unAllocs, "count")
	m.set("codec.marshal_ns."+name, mNs, "ns")
	m.set("codec.marshal_allocs."+name, mAllocs, "count")
	return unNs, mNs
}

// decodeAttrs reads the attribute map from an encoded data packet: a
// count-prefixed list of (name, float64) pairs, then the opaque payload.
func decodeAttrs(data []byte) (map[string]float64, error) {
	rd := wirecodec.NewReader(data)
	n := rd.Int()
	attrs := make(map[string]float64, max(n, 0))
	for i := 0; i < n && rd.Err() == nil; i++ {
		k := rd.String()
		attrs[k] = rd.Float64()
	}
	return attrs, rd.Err()
}
