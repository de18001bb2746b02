package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
)

// lineBytes is the engine's cache-line size.
const lineBytes = 64

// spec describes one workload: who issues what, over which lines. Every
// workload is a closed loop of `workers` goroutines in one process, each
// owning a disjoint domain of lines so it can shadow-verify its reads.
type spec struct {
	name string
	// engine selects the in-process sudoku.Concurrent target; otherwise
	// the workload drives a sudoku-cached daemon over loopback h2c.
	engine  bool
	workers int
	// batch is the lines per request (1 = single-line Read/Write, else
	// ReadBatch/WriteBatch); group is the single-line ops timed
	// together (engine only: one clock pair per group).
	batch, group int
	// writeFrac is the share of ops (or groups) that write.
	writeFrac float64
	// tenants[w] is worker w's tenant (wire only); domains[w] is its
	// first line and line count, tenant-relative on the wire.
	tenants []string
	domains [][2]uint64
	// warmup is the ops each worker runs untimed after prefill.
	warmup int
}

// Wire daemon layout: sudoku-cached's default tenants.
const (
	tenantLines = 8192
	// engineMB is engine-paper-ber's cache size; its working set is
	// twice the capacity.
	engineMB    = 16
	engineLines = engineMB << 20 / lineBytes
	// paperBER is the paper's operating point: 5.3e-6 flips per stored
	// bit per 20 ms scrub interval.
	paperBER = 5.3e-6
	// storedBits is one line's codeword: 512 data + 31 CRC + 10 ECC.
	storedBits = 553
)

// paperFlipsPerInterval is the uniform fault budget per scrub interval
// at the paper's BER over the whole engine (≈ 768 at 16 MB).
func paperFlipsPerInterval() int {
	flips := paperBER * storedBits * engineLines
	return int(math.Round(flips))
}

var specs = []spec{
	{
		// One worker: a single client/server ping-pong needs at most one
		// of the host's two vCPUs, so its median holds when the
		// hypervisor steals the other; at two workers the loop saturates
		// both and every time metric scales with steal.
		name: "point-rw", workers: 1, batch: 1, group: 1, writeFrac: 0.2,
		tenants: []string{"alpha"},
		domains: [][2]uint64{{0, tenantLines}},
		warmup:  200,
	},
	{
		name: "batch-rw", workers: 2, batch: 64, group: 1, writeFrac: 0.5,
		tenants: []string{"alpha", "beta"},
		domains: [][2]uint64{{0, tenantLines}, {0, tenantLines}},
		warmup:  20,
	},
	{
		name: "engine-paper-ber", engine: true, workers: 2, batch: 1, group: 16, writeFrac: 0.2,
		domains: [][2]uint64{{0, engineLines}, {engineLines, engineLines}},
		warmup:  100,
	},
}

func lookupSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.name
	}
	return spec{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// splitmix is the splitmix64 generator: tiny, fast, and fully
// determined by its state, so op streams depend on nothing but their
// seed.
type splitmix struct{ s uint64 }

func (r *splitmix) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// below returns a uniform value in [0, n).
func (r *splitmix) below(n uint64) uint64 { return r.next() % n }

// float returns a uniform value in [0, 1).
func (r *splitmix) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// streamSeed derives worker w's generator state from (workload, seed).
func streamSeed(workload string, seed uint64, worker int) uint64 {
	h := fnv.New64a()
	h.Write([]byte(workload))
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], seed)
	binary.LittleEndian.PutUint64(b[8:], uint64(worker))
	h.Write(b[:])
	return h.Sum64()
}

// op is one closed-loop step: a request of batch lines, or a group of
// single-line engine calls, all reads or all writes. lines are indices
// within the worker's domain, distinct within the op.
type op struct {
	write bool
	lines []uint64
}

// stream generates a worker's ops: a pure function of (workload, seed,
// worker).
type stream struct {
	r     splitmix
	spec  spec
	n     uint64
	seen  map[uint64]struct{}
	lines []uint64
}

func newStream(s spec, seed uint64, worker int) *stream {
	return &stream{
		r:     splitmix{streamSeed(s.name, seed, worker)},
		spec:  s,
		n:     s.domains[worker][1],
		seen:  make(map[uint64]struct{}, s.batch*s.group),
		lines: make([]uint64, s.batch*s.group),
	}
}

// next fills o with the next op. o.lines aliases the stream's buffer
// and is valid until the following call.
func (st *stream) next(o *op) {
	o.write = st.r.float() < st.spec.writeFrac
	clear(st.seen)
	for i := range st.lines {
		for {
			l := st.r.below(st.n)
			if _, dup := st.seen[l]; !dup {
				st.seen[l] = struct{}{}
				st.lines[i] = l
				break
			}
		}
	}
	o.lines = st.lines
}

// pattern writes the content of (key, version) into dst: every write
// gets fresh bytes, and a reader can recompute what it should see from
// the version alone.
func pattern(dst []byte, key uint64, version uint32) {
	r := splitmix{key*0x9e3779b97f4a7c15 ^ uint64(version)<<40 ^ 0x5bd1e995}
	for i := 0; i+8 <= len(dst); i += 8 {
		binary.LittleEndian.PutUint64(dst[i:], r.next())
	}
}

// shadow is a worker's record of the last acknowledged version of each
// line in its domain. A version with unknownBit set marks a write whose
// outcome the worker could not confirm: the line is not verified until
// it is written again, and the next write still takes a fresh version.
type shadow struct {
	key  uint64 // mixed into every pattern key: the worker's identity
	base uint64
	ver  []uint32
}

func newShadow(worker int, base, lines uint64) *shadow {
	return &shadow{key: uint64(worker+1) << 48, base: base, ver: make([]uint32, lines)}
}

// expect fills dst with what line should hold and reports whether the
// line is verifiable.
func (s *shadow) expect(line uint64, dst []byte) bool {
	return s.content(line, s.ver[line], dst)
}

// content fills dst with version v of line and reports whether v is a
// known version (not 0, not flagged unknown).
func (s *shadow) content(line uint64, v uint32, dst []byte) bool {
	if v == 0 || v&unknownBit != 0 {
		return false
	}
	pattern(dst, s.key|(s.base+line), v)
	return true
}

// unknownBit flags a line whose last write was not acknowledged.
const unknownBit = 1 << 31

// forget marks line unverifiable after a write that may or may not have
// landed.
func (s *shadow) forget(line uint64) { s.ver[line] |= unknownBit }

// nextWrite fills dst with the content of line's next version and
// returns that version, to be committed once the write is acknowledged.
func (s *shadow) nextWrite(line uint64, dst []byte) uint32 {
	v := s.ver[line]&^unknownBit + 1
	s.content(line, v, dst)
	return v
}
