package depa

import (
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
)

// pendingRace is one candidate race found by a shard, tagged with the
// serial ordinal of the access that fired it so the merge step can
// re-linearize candidates from all shards into the exact order a serial
// detector would have reported them. It names the two strands and their
// operations; the race is rendered after the merge, and only if the
// report keeps it.
type pendingRace struct {
	addr          mem.Addr
	ord           int64 // serial ordinal of the firing access (first repeat of a run)
	firstEv       int32 // ordinal the shadow recorded for the prior access
	first, second int32 // strands of the prior and the firing access
	count         int32 // coalesced repeats, each of which re-fires the same race
	sub           uint8 // at one store, the reader-race (0) precedes the writer-race (1)
	firstOp       uint8 // opLoad or opStore
	secondOp      uint8
}

// admit counts p's count reports in rp and, if rp keeps the race, renders
// it from the strands' lineage elements.
func (p *pendingRace) admit(rp *core.Report, strands []strandRec, lin *core.Lineage) {
	first, second := strands[p.first].frame, strands[p.second].frame
	for i := int32(0); i < p.count; i++ {
		if !rp.Admit(core.Determinacy, p.addr, "", lin.Frame(first), lin.Frame(second)) {
			continue
		}
		relation := "writer parallel"
		if p.firstOp == opLoad {
			relation = "reader parallel"
		}
		rp.Keep(core.Race{
			Kind: core.Determinacy, Addr: p.addr,
			First:  lin.Access(first, accessOp(p.firstOp)),
			Second: lin.Access(second, accessOp(p.secondOp)),
			Prov:   core.Provenance{FirstEvent: int64(p.firstEv), SecondEvent: p.ord, Relation: relation},
		})
	}
}

func accessOp(op uint8) core.AccessOp {
	if op == opLoad {
		return core.OpRead
	}
	return core.OpWrite
}

// detectSharded runs the shadow-space discipline over the access log,
// sharded by shadow page: shard s owns pages with page % shards == s.
// Every shard scans the whole log — a cheap branch per entry — and runs
// the full reader/writer protocol on its own pages only. The split is
// sound because per-address verdicts depend on nothing outside the
// address: the SP relation of two accesses comes from their strand
// timestamps alone, never from detector state evolved on other
// locations. There is no serial bucketing pass to Amdahl away the
// speedup; the only serial work left is the final merge of candidates.
func detectSharded(entries []entry, strands []strandRec, shards int, tr *obs.Trace) [][]pendingRace {
	if shards < 1 {
		shards = 1
	}
	out := make([][]pendingRace, shards)
	one := func(s int) {
		span := tr.StartTID(s+1, "rader_depa_shard")
		out[s] = detectShard(entries, strands, s, shards)
		span.Arg("shard", s).Arg("races", len(out[s])).End()
	}
	if shards == 1 {
		one(0)
		return out
	}
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			one(s)
		}(s)
	}
	wg.Wait()
	return out
}

// detectShard is the serial shadow protocol restricted to one shard's
// pages. The rules are SP-bags' rules with "is the recorded frame's bag a
// P bag" replaced by "is the recorded strand's timestamp parallel with
// the current strand" — the same question answered from the timestamps,
// which is what makes the protocol shardable. The reader shadow advances
// only when the previous reader is serial with the current strand
// (pseudotransitivity of ∥ keeps one reader sufficient); the writer
// shadow advances only from none or a serial writer.
func detectShard(entries []entry, strands []strandRec, shard, shards int) []pendingRace {
	reader := mem.NewShadow(noStrand)
	writer := mem.NewShadow(noStrand)
	readerEv := mem.NewShadow(0)
	writerEv := mem.NewShadow(0)
	// The page filter runs once per entry per shard — it is the scan's
	// fixed cost and bounds the achievable speedup, so the power-of-two
	// case (every shard count the scaling benchmark measures) replaces the
	// integer modulo with a mask.
	mask := -1
	if shards&(shards-1) == 0 {
		mask = shards - 1
	}
	var pend []pendingRace
	for _, e := range entries {
		if shards > 1 {
			page := int(uint64(e.addr) >> mem.PageBits)
			if mask >= 0 {
				if page&mask != shard {
					continue
				}
			} else if page%shards != shard {
				continue
			}
		}
		cur := e.strand
		curTs := strands[cur].ts
		// A coalesced run re-executes the same rule count times against
		// unchanged foreign state: races re-fire per repeat (the report
		// dedups to the first, counting the rest) and a shadow advance
		// lands on the run's last ordinal, exactly as repeat-by-repeat
		// processing would leave it.
		lastOrd := e.ord + int64(e.count) - 1
		race := func(prior int32, priorOp uint8, ev *mem.Shadow, sub uint8) {
			pend = append(pend, pendingRace{
				addr: e.addr, ord: e.ord, firstEv: ev.Get(e.addr),
				first: prior, second: cur, count: e.count,
				sub: sub, firstOp: priorOp, secondOp: e.op,
			})
		}
		switch e.op {
		case opLoad:
			if w := writer.Get(e.addr); w != noStrand && Parallel(strands[w].ts, curTs) {
				race(w, opStore, writerEv, 0)
			}
			if r := reader.Get(e.addr); r == noStrand || !Parallel(strands[r].ts, curTs) {
				reader.Set(e.addr, cur)
				readerEv.Set(e.addr, int32(lastOrd))
			}
		case opStore:
			if r := reader.Get(e.addr); r != noStrand && Parallel(strands[r].ts, curTs) {
				race(r, opLoad, readerEv, 0)
			}
			w := writer.Get(e.addr)
			if w != noStrand && Parallel(strands[w].ts, curTs) {
				race(w, opStore, writerEv, 1)
			}
			if w == noStrand || !Parallel(strands[w].ts, curTs) {
				writer.Set(e.addr, cur)
				writerEv.Set(e.addr, int32(lastOrd))
			}
		}
	}
	return pend
}

// mergePending joins the shards' candidates back into serial event
// order. (ord, sub) is unique per candidate — one access fires at most a
// reader-race then a writer-race — so the order, and therefore which
// representative the report retains under its dedup limit, is identical
// to a serial detector's regardless of shard count or scheduling.
func mergePending(byShard [][]pendingRace) []pendingRace {
	n := 0
	for _, s := range byShard {
		n += len(s)
	}
	all := make([]pendingRace, 0, n)
	for _, s := range byShard {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].ord != all[j].ord {
			return all[i].ord < all[j].ord
		}
		return all[i].sub < all[j].sub
	})
	return all
}
