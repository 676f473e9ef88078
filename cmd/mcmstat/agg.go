package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"

	"mcmgpu/internal/stats"
)

// Group dimensions, in canonical key order. The -group flag selects a
// subset; the key encoder always emits selected dims in this order so the
// encoded-key byte order is the output order.
const (
	dimConfig = iota
	dimWorkload
	dimKernel
	dimGPM
	dimKind
	dimName
	numDims
)

var dimNames = [numDims]string{"config", "workload", "kernel", "gpm", "kind", "name"}

// keySep separates dimension values inside an encoded group key. Dimension
// values containing 0x1f are unsupported (DESIGN.md §9).
const keySep = 0x1f

// Metric tags, the last key byte. 'h' sorts before 'u', so within one
// dimension tuple hitrate rows precede util rows — in both the fast and
// naive paths, since both order by encoded key bytes.
const (
	metricHitrate = 'h'
	metricUtil    = 'u'
)

func metricName(tag byte) string {
	if tag == metricHitrate {
		return "hitrate"
	}
	return "util"
}

// numPad is the zero-padded width numeric dimensions (kernel, gpm) are
// encoded with, so byte order equals numeric order. Display strips the
// padding.
const numPad = 12

// appendPadded appends v zero-padded to numPad digits.
func appendPadded(dst []byte, v int) []byte {
	if v < 0 {
		// Negative ids never occur in real streams; encode textually so the
		// key still round-trips.
		return strconv.AppendInt(dst, int64(v), 10)
	}
	var tmp [numPad]byte
	for i := numPad - 1; i >= 0; i-- {
		tmp[i] = byte('0' + v%10)
		v /= 10
	}
	return append(dst, tmp[:]...)
}

// unpad strips the zero padding for display.
func unpad(b []byte) []byte {
	i := 0
	for i < len(b)-1 && b[i] == '0' {
		i++
	}
	return b[i:]
}

// aggMode selects how quantiles are tracked.
type aggMode int8

const (
	modeReservoir aggMode = iota // deterministic sample, the default
	modeExact                    // keep every value, exact quantiles
)

// groupAgg is the per-group aggregate state. Every merge operation is
// commutative and exact (ExactSum, deterministic reservoir, min/max,
// integer sums), which is what makes output byte-identical across worker
// counts and spill partitionings.
type groupAgg struct {
	n        uint64
	min, max float64
	sum      stats.ExactSum // of the metric value
	sumBusy  stats.ExactSum
	units    uint64
	hits     uint64
	misses   uint64
	rsv      *stats.Reservoir
	exact    []float64
}

// observation is one flat row's contribution.
type observation struct {
	tag    uint64 // unique per observation: file base | line offset + sub-index
	v      float64
	busy   float64
	units  uint64
	hits   uint64
	misses uint64
}

// add folds one observation in. Returns the estimated heap growth in bytes
// (for the -mem accounting).
func (g *groupAgg) add(mode aggMode, k int, o observation) int {
	grew := 0
	if g.n == 0 {
		g.min, g.max = o.v, o.v
		if mode == modeReservoir {
			g.rsv = stats.NewReservoir(k)
			grew += 64
		}
	} else {
		if o.v < g.min {
			g.min = o.v
		}
		if o.v > g.max {
			g.max = o.v
		}
	}
	g.n++
	g.sum.Add(o.v)
	g.sumBusy.Add(o.busy)
	g.units += o.units
	g.hits += o.hits
	g.misses += o.misses
	switch mode {
	case modeReservoir:
		if g.rsv.Len() < k {
			grew += 24
		}
		g.rsv.Add(o.tag, o.v)
	case modeExact:
		g.exact = append(g.exact, o.v)
		grew += 8
	}
	return grew
}

// merge folds o into g.
func (g *groupAgg) merge(mode aggMode, o *groupAgg) {
	if o.n == 0 {
		return
	}
	if g.n == 0 {
		g.min, g.max = o.min, o.max
	} else {
		if o.min < g.min {
			g.min = o.min
		}
		if o.max > g.max {
			g.max = o.max
		}
	}
	g.n += o.n
	g.sum.Merge(&o.sum)
	g.sumBusy.Merge(&o.sumBusy)
	g.units += o.units
	g.hits += o.hits
	g.misses += o.misses
	switch mode {
	case modeReservoir:
		if g.rsv == nil {
			g.rsv = o.rsv
		} else {
			g.rsv.Merge(o.rsv)
		}
	case modeExact:
		g.exact = append(g.exact, o.exact...)
	}
}

// quantiles returns (p95, p99) plus the scratch slice for reuse.
func (g *groupAgg) quantiles(mode aggMode, scratch []float64) (float64, float64, []float64) {
	switch mode {
	case modeExact:
		sort.Float64s(g.exact)
		return stats.Quantile(g.exact, 0.95), stats.Quantile(g.exact, 0.99), scratch
	default:
		scratch = g.rsv.Values(scratch[:0])
		return stats.Quantile(scratch, 0.95), stats.Quantile(scratch, 0.99), scratch
	}
}

// appendState serializes the aggregate (everything after the key) for the
// external-sort spill path.
func (g *groupAgg) appendState(dst []byte, mode aggMode) []byte {
	dst = binary.AppendUvarint(dst, g.n)
	dst = appendF64(dst, g.min)
	dst = appendF64(dst, g.max)
	dst = appendF64s(dst, g.sum.Parts())
	dst = appendF64s(dst, g.sumBusy.Parts())
	dst = binary.AppendUvarint(dst, g.units)
	dst = binary.AppendUvarint(dst, g.hits)
	dst = binary.AppendUvarint(dst, g.misses)
	switch mode {
	case modeReservoir:
		dst = binary.AppendUvarint(dst, uint64(g.rsv.Len()))
		g.rsv.Each(func(tag uint64, v float64) {
			dst = binary.AppendUvarint(dst, tag)
			dst = appendF64(dst, v)
		})
	case modeExact:
		dst = binary.AppendUvarint(dst, uint64(len(g.exact)))
		for _, v := range g.exact {
			dst = appendF64(dst, v)
		}
	}
	return dst
}

// parseState deserializes an aggregate produced by appendState into a fresh
// groupAgg.
func parseState(b []byte, mode aggMode, k int, g *groupAgg) error {
	*g = groupAgg{}
	var err error
	if g.n, b, err = takeUvarint(b); err != nil {
		return err
	}
	if g.min, b, err = takeF64(b); err != nil {
		return err
	}
	if g.max, b, err = takeF64(b); err != nil {
		return err
	}
	if b, err = takeF64s(b, &g.sum); err != nil {
		return err
	}
	if b, err = takeF64s(b, &g.sumBusy); err != nil {
		return err
	}
	if g.units, b, err = takeUvarint(b); err != nil {
		return err
	}
	if g.hits, b, err = takeUvarint(b); err != nil {
		return err
	}
	if g.misses, b, err = takeUvarint(b); err != nil {
		return err
	}
	switch mode {
	case modeReservoir:
		var cnt uint64
		if cnt, b, err = takeUvarint(b); err != nil {
			return err
		}
		g.rsv = stats.NewReservoir(k)
		for i := uint64(0); i < cnt; i++ {
			var tag uint64
			var v float64
			if tag, b, err = takeUvarint(b); err != nil {
				return err
			}
			if v, b, err = takeF64(b); err != nil {
				return err
			}
			g.rsv.Add(tag, v)
		}
	case modeExact:
		var cnt uint64
		if cnt, b, err = takeUvarint(b); err != nil {
			return err
		}
		g.exact = make([]float64, 0, cnt)
		for i := uint64(0); i < cnt; i++ {
			var v float64
			if v, b, err = takeF64(b); err != nil {
				return err
			}
			g.exact = append(g.exact, v)
		}
	}
	if len(b) != 0 {
		return fmt.Errorf("mcmstat: %d trailing bytes in spilled aggregate", len(b))
	}
	return nil
}

func appendF64(dst []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
}

func appendF64s(dst []byte, vs []float64) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(vs)))
	for _, v := range vs {
		dst = appendF64(dst, v)
	}
	return dst
}

func takeUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, nil, fmt.Errorf("mcmstat: corrupt spilled aggregate (uvarint)")
	}
	return v, b[n:], nil
}

func takeF64(b []byte) (float64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, fmt.Errorf("mcmstat: corrupt spilled aggregate (f64)")
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b)), b[8:], nil
}

// takeF64s reads a float list, Add-ing each into sum (reconstructing the
// exact expansion).
func takeF64s(b []byte, sum *stats.ExactSum) ([]byte, error) {
	cnt, b, err := takeUvarint(b)
	if err != nil {
		return nil, err
	}
	for i := uint64(0); i < cnt; i++ {
		var v float64
		if v, b, err = takeF64(b); err != nil {
			return nil, err
		}
		sum.Add(v)
	}
	return b, nil
}

// table is an open-addressing hash table from encoded group key to
// aggregate, tuned for the allocation-free hot path: keys live in one
// arena, slots hold indexes, lookups never allocate.
type table struct {
	mode aggMode
	k    int

	slots   []int32 // entry index + 1; 0 = empty
	hashes  []uint64
	entries []tEntry
	arena   []byte

	bytes int // estimated heap footprint for the -mem accounting
}

type tEntry struct {
	keyOff, keyLen uint32
	hash           uint64
	agg            groupAgg
}

func newTable(mode aggMode, k int) *table {
	return &table{mode: mode, k: k, slots: make([]int32, 1024)}
}

func (t *table) key(e *tEntry) []byte {
	return t.arena[e.keyOff : e.keyOff+uint32(e.keyLen)]
}

// fnv1a hashes the key bytes.
func fnv1a(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// add folds one observation into the group keyed by key.
func (t *table) add(key []byte, o observation) {
	h := fnv1a(key)
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for {
		s := t.slots[i]
		if s == 0 {
			t.insert(i, h, key, o)
			return
		}
		e := &t.entries[s-1]
		if e.hash == h && string(t.key(e)) == string(key) {
			t.bytes += e.agg.add(t.mode, t.k, o)
			return
		}
		i = (i + 1) & mask
	}
}

func (t *table) insert(slot uint64, h uint64, key []byte, o observation) {
	t.entries = append(t.entries, tEntry{
		keyOff: uint32(len(t.arena)),
		keyLen: uint32(len(key)),
		hash:   h,
	})
	t.arena = append(t.arena, key...)
	t.slots[slot] = int32(len(t.entries))
	e := &t.entries[len(t.entries)-1]
	t.bytes += len(key) + 160 // entry + slot overhead estimate
	t.bytes += e.agg.add(t.mode, t.k, o)
	if len(t.entries)*4 >= len(t.slots)*3 {
		t.grow()
	}
}

func (t *table) grow() {
	slots := make([]int32, len(t.slots)*2)
	mask := uint64(len(slots) - 1)
	for idx := range t.entries {
		i := t.entries[idx].hash & mask
		for slots[i] != 0 {
			i = (i + 1) & mask
		}
		slots[i] = int32(idx + 1)
	}
	t.slots = slots
}

// reset empties the table, keeping capacity.
func (t *table) reset() {
	for i := range t.slots {
		t.slots[i] = 0
	}
	t.entries = t.entries[:0]
	t.arena = t.arena[:0]
	t.bytes = 0
}
