package costmodel

import (
	"math"
	"math/bits"
)

// joinRels costs the join of two planned relations over every combination of
// their achievable partitioning properties and every distributed strategy:
//
//   - co-located join (both sides partitioned on the join class, or a side
//     replicated): no network traffic;
//   - repartition one side onto the join class;
//   - symmetric repartitioning of both sides;
//   - broadcast the smaller side.
//
// The resulting relation keeps, per achievable output property, the cheapest
// total cost — the "interesting order" bookkeeping that lets downstream
// joins go co-located.
func (q *qctx) joinRels(r1, r2 *rel, m1, m2 uint64, classes []int) *rel {
	hw := q.m.HW
	n := float64(hw.Nodes)
	outMask := m1 | m2
	out := &rel{
		rows:  q.cardinality(outMask),
		width: q.subsetWidth(outMask),
		props: make(map[int]float64),
	}
	bytes1 := float64(r1.rows * r1.width)
	bytes2 := float64(r2.rows * r2.width)
	// Moving tuples costs wire time plus per-tuple (de)serialization CPU —
	// distributed engines rarely shuffle at wire speed. Serialization is
	// cheaper than hash-join processing (serializationSpeedup x).
	netTime := func(bytesMoved, rowsMoved float64) float64 {
		return bytesMoved/(n*hw.NetBytesPerSec) + rowsMoved/(n*serializationSpeedup*hw.CPUTuplesPerSec)
	}
	// cpuTime estimates the per-node hash-join wall time: build + probe +
	// output materialization, at the given effective parallelism per side.
	cpuTime := func(buildRows, buildEff, probeRows, probeEff, outEff float64) float64 {
		return (buildRows/buildEff + probeRows/probeEff + out.rows/outEff) / hw.CPUTuplesPerSec
	}
	// The paper's cost model is deliberately "simple yet generic" and
	// network-centric: compute costs assume full parallelism n regardless of
	// how coarse or skewed the join-key distribution is (only replicated
	// inputs, processed in full on every node, run at parallelism 1).
	// Skew-induced stragglers therefore only surface in the online phase,
	// where the engine measures them — one of the inaccuracies that lets
	// online refinement improve on offline training (§7.3).
	propEff := func(p int) float64 {
		if p == propReplicated {
			return 1 // every node holds (and would process) the full copy
		}
		return n
	}
	record := func(prop int, cost float64) {
		if old, ok := out.props[prop]; !ok || cost < old {
			out.props[prop] = cost
		}
	}

	for p1, c1 := range r1.props {
		for p2, c2 := range r2.props {
			base := c1 + c2
			switch {
			case p1 == propReplicated && p2 == propReplicated:
				// Fully local; result is replicated too.
				record(propReplicated, base+cpuTime(math.Min(r1.rows, r2.rows), 1, math.Max(r1.rows, r2.rows), 1, 1))
				continue
			case p1 == propReplicated:
				// Build the replicated side on every node, probe the
				// partitioned side locally.
				record(p2, base+cpuTime(r1.rows, 1, r2.rows, propEff(p2), propEff(p2)))
			case p2 == propReplicated:
				record(p1, base+cpuTime(r2.rows, 1, r1.rows, propEff(p1), propEff(p1)))
			default:
				// Both partitioned.
				small, large := r1, r2
				pLarge := p2
				bSmall := bytes1
				if bytes2 < bytes1 {
					small, large = r2, r1
					pLarge = p1
					bSmall = bytes2
				}
				// Broadcast the smaller side.
				record(pLarge, base+netTime(bSmall*(n-1), small.rows*(n-1))+
					cpuTime(small.rows, 1, large.rows, propEff(pLarge), propEff(pLarge)))
				for _, c := range classes {
					eff := n
					switch {
					case p1 == c && p2 == c:
						record(c, base+cpuTime(math.Min(r1.rows, r2.rows), eff, math.Max(r1.rows, r2.rows), eff, eff))
					case p1 == c:
						record(c, base+netTime(bytes2*(n-1)/n, r2.rows*(n-1)/n)+
							cpuTime(math.Min(r1.rows, r2.rows), eff, math.Max(r1.rows, r2.rows), eff, eff))
					case p2 == c:
						record(c, base+netTime(bytes1*(n-1)/n, r1.rows*(n-1)/n)+
							cpuTime(math.Min(r1.rows, r2.rows), eff, math.Max(r1.rows, r2.rows), eff, eff))
					default:
						// Symmetric repartitioning of both sides.
						record(c, base+netTime((bytes1+bytes2)*(n-1)/n, (r1.rows+r2.rows)*(n-1)/n)+
							cpuTime(math.Min(r1.rows, r2.rows), eff, math.Max(r1.rows, r2.rows), eff, eff))
					}
				}
			}
		}
	}
	return out
}

// dpPlan enumerates join orders over a connected component with dynamic
// programming over connected subsets (a compact DPccp variant), keeping the
// cheapest cost per output partitioning property.
func (q *qctx) dpPlan(comp uint64) *rel {
	best := make(map[uint64]*rel)
	// Leaves.
	rem := comp
	for rem != 0 {
		i := bits.TrailingZeros64(rem)
		rem &^= 1 << uint(i)
		best[1<<uint(i)] = q.leafRel(i)
	}
	// Subsets in increasing popcount order, enumerated as sub-masks of comp.
	subsets := subsetsAscending(comp)
	for _, mask := range subsets {
		if bits.OnesCount64(mask) < 2 || !q.connected(mask) {
			continue
		}
		var acc *rel
		// Enumerate proper sub-splits; (s1, s2) and (s2, s1) are the same
		// split, so only visit s1 containing the lowest bit of mask.
		low := uint64(1) << uint(bits.TrailingZeros64(mask))
		for s1 := (mask - 1) & mask; s1 != 0; s1 = (s1 - 1) & mask {
			if s1&low == 0 {
				continue
			}
			s2 := mask &^ s1
			r1, ok1 := best[s1]
			r2, ok2 := best[s2]
			if !ok1 || !ok2 {
				continue
			}
			classes, any, _ := q.connectingClasses(s1, s2)
			if !any {
				continue
			}
			j := q.joinRels(r1, r2, s1, s2, classes)
			if acc == nil {
				acc = j
			} else {
				for p, c := range j.props {
					if old, ok := acc.props[p]; !ok || c < old {
						acc.props[p] = c
					}
				}
			}
		}
		if acc != nil {
			best[mask] = acc
		}
	}
	if r, ok := best[comp]; ok {
		return r
	}
	// Should not happen for connected components; fall back to greedy.
	return q.greedyPlan(comp)
}

// subsetsAscending lists all non-empty submasks of comp ordered by popcount
// (then numerically) so DP dependencies are ready when needed.
func subsetsAscending(comp uint64) []uint64 {
	var subs []uint64
	for s := comp; s != 0; s = (s - 1) & comp {
		subs = append(subs, s)
	}
	sortByPopcount(subs)
	return subs
}

func sortByPopcount(subs []uint64) {
	// Counting sort over popcount keeps this O(n).
	buckets := make([][]uint64, 65)
	for _, s := range subs {
		pc := bits.OnesCount64(s)
		buckets[pc] = append(buckets[pc], s)
	}
	i := 0
	for _, b := range buckets {
		for _, s := range b {
			subs[i] = s
			i++
		}
	}
}

// greedyPlan joins the pair of relations with the smallest estimated output
// first — the fallback for components too large for the DP.
func (q *qctx) greedyPlan(comp uint64) *rel {
	type entry struct {
		mask uint64
		rel  *rel
	}
	var items []entry
	rem := comp
	for rem != 0 {
		i := bits.TrailingZeros64(rem)
		rem &^= 1 << uint(i)
		items = append(items, entry{mask: 1 << uint(i), rel: q.leafRel(i)})
	}
	for len(items) > 1 {
		bi, bj := -1, -1
		bestRows := math.Inf(1)
		for i := 0; i < len(items); i++ {
			for j := i + 1; j < len(items); j++ {
				if _, any, _ := q.connectingClasses(items[i].mask, items[j].mask); !any {
					continue
				}
				if r := q.cardinality(items[i].mask | items[j].mask); r < bestRows {
					bestRows, bi, bj = r, i, j
				}
			}
		}
		if bi < 0 {
			// Disconnected remainder (cartesian): combine the two smallest
			// by broadcasting; approximate with the generic join cost and
			// no shared class.
			bi, bj = 0, 1
		}
		classes, _, _ := q.connectingClasses(items[bi].mask, items[bj].mask)
		joined := entry{
			mask: items[bi].mask | items[bj].mask,
			rel:  q.joinRels(items[bi].rel, items[bj].rel, items[bi].mask, items[bj].mask, classes),
		}
		items[bi] = joined
		items = append(items[:bj], items[bj+1:]...)
	}
	return items[0].rel
}
