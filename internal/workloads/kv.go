package workloads

import (
	"fmt"
	"math"

	"lcm/internal/core"
	"lcm/internal/cstar"
	"lcm/internal/memsys"
	"lcm/internal/tempest"
)

// KVSpec parameterizes the sharded key-value serving workload: a hashed
// key space partitioned into contiguous shards laid out over the
// simulated global address space, driven by per-stream Zipf-skewed
// get/put request generators.  Unlike the paper's four kernels this is
// irregular serving traffic — hot-key read sharing, single-owner shard
// writes, and epoch-based resharding whose block handoff stresses the
// protocols mid-run.
//
// Consistency contract (all three systems implement it identically):
// a phase's gets read the store state committed at the previous phase
// boundary; its puts are buffered as intents and applied at the phase
// boundary by each shard's owner, scanning streams in canonical order
// (stream index ascending, then request order) so the last writer of a
// key is schedule- and P-independent.  Under LCM that is exactly the
// reconcile semantics; under Stache the same structure is imposed by
// barriers, so the final store bytes agree bit-for-bit across systems.
type KVSpec struct {
	// Keys is the key-space size; keys are 64-bit values.
	Keys int
	// Shards is the number of contiguous key ranges with a single owner
	// each; Keys must divide evenly into block-aligned shards (norm
	// rounds Keys up).
	Shards int
	// Streams is the number of client request streams; stream c is
	// served by node c mod P, but its request sequence depends only on
	// (Seed, c), never on P.
	Streams int
	// Phases is the number of serving phases (each = serve + apply).
	Phases int
	// OpsPerStream is the number of requests per stream per phase.
	OpsPerStream int
	// Skew is the Zipf exponent of the key popularity distribution
	// (0.99 is the YCSB-style default; higher = hotter hot keys).
	Skew float64
	// Mix names the phase schedule: "read" (read-mostly, 95% gets) or
	// "write" (write-heavy, 50% gets).
	Mix string
	// ReshardEvery starts a new ownership epoch every this many phases,
	// rotating every shard to the next node with block handoff charged
	// through the protocols; negative disables resharding.
	ReshardEvery int
	// Seed seeds the per-stream request generators.
	Seed uint64
}

// PaperKV returns the default serving configuration for the given mix.
func PaperKV(mix string) KVSpec {
	return KVSpec{Keys: 65536, Shards: 64, Streams: 64, Phases: 12,
		OpsPerStream: 256, Skew: 0.99, Mix: mix, ReshardEvery: 4, Seed: 1}
}

// kvAlign is the element alignment of shard and stream extents: 32
// 8-byte elements = 256 bytes, the protocol's largest legal block, so a
// shard (single store writer) or stream intent range (single buffer
// writer) never shares a block with another owner at any block size.
const kvAlign = 32

// norm applies defaults and rounds the extents to block-aligned sizes.
func (s KVSpec) norm() KVSpec {
	if s.Shards <= 0 {
		s.Shards = 64
	}
	if s.Streams <= 0 {
		s.Streams = 64
	}
	if s.Keys <= 0 {
		s.Keys = 65536
	}
	if s.Phases <= 0 {
		s.Phases = 12
	}
	if s.OpsPerStream <= 0 {
		s.OpsPerStream = 256
	}
	if s.Skew == 0 {
		s.Skew = 0.99
	}
	if s.Mix == "" {
		s.Mix = "read"
	}
	if s.ReshardEvery == 0 {
		s.ReshardEvery = 4
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
	// Round the per-shard key count and per-stream op count up to the
	// alignment quantum, then rebuild the totals from them.
	perShard := (s.Keys + s.Shards - 1) / s.Shards
	perShard = (perShard + kvAlign - 1) / kvAlign * kvAlign
	s.Keys = perShard * s.Shards
	s.OpsPerStream = (s.OpsPerStream + kvAlign - 1) / kvAlign * kvAlign
	return s
}

// readFrac is the get fraction of the spec's mix schedule.
func (s KVSpec) readFrac() (float64, error) {
	switch s.Mix {
	case "read":
		return 0.95, nil
	case "write":
		return 0.50, nil
	}
	return 0, fmt.Errorf("kv: unknown mix %q (want read or write)", s.Mix)
}

// sm64 is a splitmix64 generator: tiny, seedable, and with no shared
// state between streams, so request sequences are a pure function of
// (Seed, stream) independent of P and of the schedule.
type sm64 struct{ s uint64 }

func (r *sm64) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// float returns a uniform float64 in [0, 1).
func (r *sm64) float() float64 { return float64(r.next()>>11) * 0x1p-53 }

// kvStreamRNG seeds stream c's generator.
func kvStreamRNG(seed uint64, c int) sm64 {
	r := sm64{s: seed ^ (uint64(c+1) * 0xD1B54A32D192ED03)}
	r.next() // decorrelate nearby seeds
	return r
}

// kvHash spreads popularity rank r over the key space, so the Zipf head
// lands on pseudo-random shards instead of shard 0.
func kvHash(r int) uint64 {
	x := sm64{s: uint64(r)}
	return x.next()
}

// zipfTable returns the cumulative (unnormalized) Zipf weights
// sum_{r<=i} 1/(r+1)^s; sampling is a uniform draw against the total
// followed by a binary search.  The table is host-side and shared
// read-only by all node coroutines.
func zipfTable(n int, s float64) []float64 {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += math.Pow(float64(i+1), -s)
		cum[i] = total
	}
	return cum
}

// zipfSample draws a popularity rank in [0, len(cum)).
func zipfSample(r *sm64, cum []float64) int {
	u := r.float() * cum[len(cum)-1]
	lo, hi := 0, len(cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if cum[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// kvOp is one generated request.
type kvOp struct {
	key int
	put bool
	val int64
}

// kvGen draws stream r's next request.  Both the parallel run and the
// sequential reference call exactly this, in the same order, so the
// request trace is shared by construction.
func kvGen(r *sm64, cum []float64, keys int, readFrac float64) kvOp {
	get := r.float() < readFrac
	rank := zipfSample(r, cum)
	key := int(kvHash(rank) % uint64(keys))
	op := kvOp{key: key, put: !get}
	if op.put {
		op.val = int64(r.next() & 0xFFFFFFFF)
	}
	return op
}

// Intent encoding: one int64 per request slot.  Zero means "get"
// (nothing to apply); a put sets bit 62, carries the key in bits 61..32
// and the 32-bit value in bits 31..0.
const (
	kvPutFlag  = int64(1) << 62
	kvKeyShift = 32
	kvValMask  = (int64(1) << 32) - 1
)

func kvEncode(op kvOp) int64 {
	if !op.put {
		return 0
	}
	return kvPutFlag | int64(op.key)<<kvKeyShift | op.val
}

func kvDecode(slot int64) (key int, val int64, put bool) {
	if slot&kvPutFlag == 0 {
		return 0, 0, false
	}
	return int(slot >> kvKeyShift & ((1 << 30) - 1)), slot & kvValMask, true
}

// kvOwner is the shard->node assignment of an ownership epoch: each
// epoch rotates every shard to the next node, so a reshard migrates the
// whole map (the stress case for block handoff).
func kvOwner(shard, epoch, p int) int { return (shard + epoch) % p }

// KVStats holds the serving-workload observables.  All are zero for the
// other workloads; the scalar fields land in BENCH JSON/CSV and are held
// to the same bit-identity gates as every protocol counter.
type KVStats struct {
	// Ops, Gets and Puts count served requests (host-side tallies of
	// the deterministic request trace; P-independent).
	Ops, Gets, Puts int64
	// Reshards counts ownership epoch transitions; MigratedBlocks the
	// store blocks whose owner changed across them.
	Reshards, MigratedBlocks int64
	// HotShardOps is the request count of the hottest shard — the
	// hot-key skew the Zipf generator actually delivered.
	HotShardOps int64
	// Answer folds the per-shard store checksums and the per-stream get
	// checksums into one value; it must be identical across protocols,
	// machine sizes and schedules (the differential tests assert this).
	Answer int64
	// PerShard and GetSum are the unfolded answer parts for tests.
	PerShard []uint64 `json:"-"`
	GetSum   uint64   `json:"-"`
}

// fnv1a folds v into h (FNV-1a over the 8 bytes, little-endian).
func fnv1a(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xFF
		h *= 1099511628211
	}
	return h
}

const fnvOffset = 14695981039346656037

// RunKV executes the sharded KV serving workload on the given system.
func RunKV(sys cstar.System, spec KVSpec, cfg Config) Result {
	cfg = cfg.Norm()
	spec = spec.norm()
	res := Result{Workload: "KV", System: sys, Sched: spec.Mix, Extra: map[string]float64{}}
	readFrac, err := spec.readFrac()
	if err != nil {
		res.Err = err
		return res
	}
	m := cfg.Machine(sys)
	p := cfg.P

	perShard := spec.Keys / spec.Shards
	slots := spec.Streams * spec.OpsPerStream
	elemsPerBlock := int(cfg.BlockSize / 8)
	blocksPerShard := perShard / elemsPerBlock

	// The store and the intent buffer carry the data-parallel traffic
	// and take the system's data policy (loosely coherent under LCM);
	// the shard map is control metadata and stays coherent everywhere.
	store := cstar.NewVectorI64(m, "KV.store", spec.Keys, cstar.DataPolicy(sys), memsys.Blocked)
	intents := cstar.NewVectorI64(m, "KV.intents", slots, cstar.DataPolicy(sys), memsys.Interleaved)
	getsum := cstar.NewVectorI64(m, "KV.getsum", spec.Streams, cstar.DataPolicy(sys), memsys.Interleaved)
	// shardMap[s] is shard s's owner; the last element is the epoch
	// version, bumped by node 0 at each reshard barrier.
	shardMap := cstar.NewVectorI32(m, "KV.map", spec.Shards+1, core.Coherent(), memsys.SingleHome)
	m.Freeze()
	for s := 0; s < spec.Shards; s++ {
		shardMap.Poke(s, int32(kvOwner(s, 0, p)))
	}

	cum := zipfTable(spec.Keys, spec.Skew)

	var stats KVStats
	shardOps := make([]int64, spec.Shards)

	// The program assigns each phase's work itself (stream c to node c mod
	// P), so its calls name only what they read.
	serve := cstar.Call{Reads: []cstar.Aggregate{store}}
	apply := cstar.Call{Reads: []cstar.Aggregate{intents, shardMap}}
	runErr := m.RunErr(func(n *tempest.Node) {
		// Per-stream generator state, indexed by stream; this node only
		// touches the streams it serves (c mod P == n.ID), always in
		// ascending stream order so its access stream is deterministic.
		rngs := make([]sm64, spec.Streams)
		mySums := make([]uint64, spec.Streams)
		for c := n.ID; c < spec.Streams; c += p {
			rngs[c] = kvStreamRNG(spec.Seed, c)
			mySums[c] = fnvOffset
		}
		var myGets, myPuts, myMigrated, myReshards int64
		myShardOps := make([]int64, spec.Shards)
		span := make([]int64, kvAlign)
		epoch := 0

		for phase := 0; phase < spec.Phases; phase++ {
			// Reshard barrier: node 0 republishes the shard map under a
			// new version; the old owner hands its blocks off by
			// dropping its cached copies, and the new owner tallies the
			// migration.  The extra reconciliation versions the map: every
			// node sees the new epoch before any request of the phase.
			resharded := spec.ReshardEvery > 0 && phase > 0 && phase%spec.ReshardEvery == 0
			if resharded {
				epoch++
				if n.ID == 0 {
					for s := 0; s < spec.Shards; s++ {
						shardMap.Set(n, s, int32(kvOwner(s, epoch, p)))
					}
					shardMap.Set(n, spec.Shards, int32(epoch))
					myReshards++
				}
				n.ReconcileCopies()
				for s := 0; s < spec.Shards; s++ {
					was, now := kvOwner(s, epoch-1, p), kvOwner(s, epoch, p)
					if was == now {
						continue
					}
					if was == n.ID {
						for b := 0; b < blocksPerShard; b++ {
							n.DropCopy(store.Addr(s*perShard + b*elemsPerBlock))
						}
					}
					if now == n.ID {
						myMigrated += int64(blocksPerShard)
					}
				}
			}

			// Serve: answer this node's streams.  Gets read the store
			// state committed at the last phase boundary; puts are
			// buffered into the stream's intent slots (single writer).
			// The store is read-only for the phase, but after a reshard:
			// the old owners' DropCopy above is no read, and it fails on a
			// region declared read-only.
			phaseCall := serve
			if resharded {
				phaseCall = cstar.Call{}
			}
			phaseCall.Begin(n, phase)
			for c := n.ID; c < spec.Streams; c += p {
				r := &rngs[c]
				base := c * spec.OpsPerStream
				for o := 0; o < spec.OpsPerStream; o++ {
					op := kvGen(r, cum, spec.Keys, readFrac)
					n.Compute(2) // hash + shard lookup
					myShardOps[op.key/perShard]++
					if op.put {
						intents.Set(n, base+o, kvEncode(op))
						myPuts++
					} else {
						mySums[c] = fnv1a(mySums[c], uint64(store.Get(n, op.key)))
						intents.Set(n, base+o, 0)
						myGets++
					}
				}
			}
			phaseCall.End(n)

			// Apply: every node scans the whole intent buffer in
			// canonical slot order and applies the puts that land in
			// shards it owns, so the last writer of a key is the highest
			// slot regardless of machine size or schedule.
			apply.Begin(n, phase)
			for lo := 0; lo < slots; lo += kvAlign {
				for _, slot := range intents.ReadView(n, lo, span) {
					key, val, put := kvDecode(slot)
					if !put {
						continue
					}
					if int(shardMap.Get(n, key/perShard)) != n.ID {
						continue
					}
					n.Compute(1)
					store.Set(n, key, val)
				}
			}
			apply.End(n)
		}

		// Publish the per-stream get checksums through simulated memory
		// so the answer is itself a protocol-visible result.
		for c := n.ID; c < spec.Streams; c += p {
			getsum.Set(n, c, int64(mySums[c]))
		}
		n.ReconcileCopies()

		stats.Gets += myGets
		stats.Puts += myPuts
		stats.MigratedBlocks += myMigrated
		stats.Reshards += myReshards
		for s, k := range myShardOps {
			shardOps[s] += k
		}
	})
	if runErr != nil {
		res.Err = runErr
		return res
	}
	finish(m, &res)

	stats.Ops = stats.Gets + stats.Puts
	for _, k := range shardOps {
		if k > stats.HotShardOps {
			stats.HotShardOps = k
		}
	}
	// Fold the answer from the home images: per-shard store checksums
	// in shard order, then the get checksums in stream order.
	stats.PerShard = make([]uint64, spec.Shards)
	answer := uint64(fnvOffset)
	for s := 0; s < spec.Shards; s++ {
		h := uint64(fnvOffset)
		for k := s * perShard; k < (s+1)*perShard; k++ {
			h = fnv1a(h, uint64(store.Peek(k)))
		}
		stats.PerShard[s] = h
		answer = fnv1a(answer, h)
	}
	gs := uint64(fnvOffset)
	for c := 0; c < spec.Streams; c++ {
		gs = fnv1a(gs, uint64(getsum.Peek(c)))
	}
	stats.GetSum = gs
	stats.Answer = int64(fnv1a(answer, gs))
	res.KV = stats
	res.Extra["kv_hot_shard_ratio"] = float64(stats.HotShardOps) / float64(stats.Ops)

	if cfg.Verify && res.Err == nil {
		res.Err = verifyKV(store, getsum, spec, readFrac)
	}
	return res
}

// kvReference replays the whole campaign sequentially: the same request
// generators, the same buffered-put semantics, the same canonical apply
// order.  It returns the final store and the per-stream get checksums.
func kvReference(spec KVSpec, readFrac float64) (store []int64, sums []uint64) {
	store = make([]int64, spec.Keys)
	sums = make([]uint64, spec.Streams)
	rngs := make([]sm64, spec.Streams)
	for c := range rngs {
		rngs[c] = kvStreamRNG(spec.Seed, c)
		sums[c] = fnvOffset
	}
	cum := zipfTable(spec.Keys, spec.Skew)
	puts := make([]kvOp, spec.Streams*spec.OpsPerStream)
	for phase := 0; phase < spec.Phases; phase++ {
		for i := range puts {
			puts[i] = kvOp{}
		}
		for c := 0; c < spec.Streams; c++ {
			base := c * spec.OpsPerStream
			for o := 0; o < spec.OpsPerStream; o++ {
				op := kvGen(&rngs[c], cum, spec.Keys, readFrac)
				if op.put {
					puts[base+o] = op
				} else {
					sums[c] = fnv1a(sums[c], uint64(store[op.key]))
				}
			}
		}
		for _, op := range puts {
			if op.put {
				store[op.key] = op.val
			}
		}
	}
	return store, sums
}

// verifyKV compares the simulated home images against the sequential
// reference, key by key and stream by stream.
func verifyKV(store *cstar.VectorI64, getsum *cstar.VectorI64, spec KVSpec, readFrac float64) error {
	refStore, refSums := kvReference(spec, readFrac)
	for k := range refStore {
		if got := store.Peek(k); got != refStore[k] {
			return fmt.Errorf("kv: store[%d] = %d, want %d", k, got, refStore[k])
		}
	}
	for c := range refSums {
		if got := uint64(getsum.Peek(c)); got != refSums[c] {
			return fmt.Errorf("kv: getsum[%d] = %#x, want %#x", c, got, refSums[c])
		}
	}
	return nil
}
