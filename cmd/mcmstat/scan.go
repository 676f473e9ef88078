package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"sync"

	"mcmgpu/internal/extsort"
	"mcmgpu/internal/metricstream"
)

// chunkSize is the fixed parallel work grid: every regular-file input is
// cut into chunkSize spans at byte boundaries. The grid depends only on
// file sizes — never on -j — so the set of (chunk, line) assignments is
// identical for any worker count; only which worker handles a chunk varies,
// and all aggregate merges are commutative.
const chunkSize = 1 << 20

// maxLine bounds a single record line during chunk extension.
const maxLine = 256 << 20

// fileBaseShift positions the input index in the high tag bits: each input
// gets 2^44 (16 TiB) of offset space, far beyond any stream.
const fileBaseShift = 44

// input is one opened metrics stream.
type input struct {
	path   string
	f      *os.File
	size   int64
	format metricstream.Format
	seq    bool   // gzip or non-seekable: must scan sequentially
	base   uint64 // tag base: inputIndex << fileBaseShift
}

// chunk is one unit of parallel work.
type chunk struct {
	in         *input
	start, end int64
}

// recordFilter selects which record types aggregate.
type recordFilter int8

const (
	recSamples recordFilter = iota
	recKernels
	recBoth
)

func (f recordFilter) keep(t metricstream.RecordType) bool {
	switch f {
	case recSamples:
		return t == metricstream.TypeSample
	case recKernels:
		return t == metricstream.TypeKernel
	}
	return true
}

// spiller serializes table flushes into one shared external sorter.
type spiller struct {
	mu     sync.Mutex
	sorter *extsort.Sorter
	used   bool
}

// spillCompare orders spilled (uvarint keyLen | key | state) records by
// key bytes; equal keys are merged downstream, so their relative order is
// irrelevant (and stable anyway).
func spillCompare(a, b []byte) int {
	ka, na := binary.Uvarint(a)
	kb, nb := binary.Uvarint(b)
	return bytes.Compare(a[na:na+int(ka)], b[nb:nb+int(kb)])
}

// flush serializes every table entry into the shared sorter and resets the
// table.
func (sp *spiller) flush(t *table, scratch []byte) ([]byte, error) {
	sp.mu.Lock()
	defer sp.mu.Unlock()
	sp.used = true
	for i := range t.entries {
		e := &t.entries[i]
		key := t.key(e)
		scratch = scratch[:0]
		scratch = binary.AppendUvarint(scratch, uint64(len(key)))
		scratch = append(scratch, key...)
		scratch = e.agg.appendState(scratch, t.mode)
		if err := sp.sorter.Add(scratch); err != nil {
			return scratch, err
		}
	}
	t.reset()
	return scratch, nil
}

// aggCtx is one scanning context (one per worker, plus one for sequential
// inputs): a reused Record, the group table, and key scratch.
type aggCtx struct {
	dims    []int
	filter  recordFilter
	tbl     *table
	budget  int // flush threshold for tbl.bytes
	sp      *spiller
	rec     metricstream.Record
	prefix  []byte // record-level dims, rebuilt per record
	keyBuf  []byte
	spillSc []byte
	rows    int64 // observations aggregated
	readBuf []byte
}

func newAggCtx(dims []int, filter recordFilter, mode aggMode, k, budget int, sp *spiller) *aggCtx {
	return &aggCtx{
		dims:   dims,
		filter: filter,
		tbl:    newTable(mode, k),
		budget: budget,
		sp:     sp,
	}
}

func hitrate(hits, misses uint64) float64 {
	total := hits + misses
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// record aggregates every flat row of one parsed record. lineOff is the
// line's byte offset in the (decompressed) input; base the input's tag
// base. Together they give each observation its unique deterministic tag —
// sub-indexes stay below the line length, so tags never collide.
func (c *aggCtx) record(rec *metricstream.Record, lineOff int64, base uint64) error {
	if !c.filter.keep(rec.Type) {
		return nil
	}
	c.prefix = c.prefix[:0]
	rowDims := c.dims
	for len(rowDims) > 0 {
		switch rowDims[0] {
		case dimConfig:
			c.prefix = append(c.prefix, rec.Config...)
		case dimWorkload:
			c.prefix = append(c.prefix, rec.Workload...)
		case dimKernel:
			c.prefix = appendPadded(c.prefix, rec.Kernel)
		default:
			goto rowLevel
		}
		c.prefix = append(c.prefix, keySep)
		rowDims = rowDims[1:]
	}
rowLevel:
	sub := uint64(0)
	for i := range rec.Resources {
		r := &rec.Resources[i]
		key := append(c.keyBuf[:0], c.prefix...)
		for _, d := range rowDims {
			switch d {
			case dimGPM:
				key = appendPadded(key, r.GPM)
			case dimKind:
				key = append(key, r.Kind...)
			case dimName:
				key = append(key, r.Name...)
			}
			key = append(key, keySep)
		}
		key = append(key, metricUtil)
		c.keyBuf = key[:0]
		c.tbl.add(key, observation{
			tag:   base | (uint64(lineOff) + sub),
			v:     r.Util,
			busy:  r.Busy,
			units: r.Units,
		})
		sub++
	}
	for i := range rec.Caches {
		cc := &rec.Caches[i]
		key := append(c.keyBuf[:0], c.prefix...)
		for _, d := range rowDims {
			switch d {
			case dimGPM:
				key = appendPadded(key, cc.GPM)
			case dimKind:
				key = append(key, "cache"...)
			case dimName:
				key = append(key, cc.Level...)
			}
			key = append(key, keySep)
		}
		key = append(key, metricHitrate)
		c.keyBuf = key[:0]
		c.tbl.add(key, observation{
			tag:    base | (uint64(lineOff) + sub),
			v:      hitrate(cc.Hits, cc.Misses),
			hits:   cc.Hits,
			misses: cc.Misses,
		})
		sub++
	}
	c.rows += int64(len(rec.Resources) + len(rec.Caches))
	if c.tbl.bytes > c.budget {
		var err error
		c.spillSc, err = c.sp.flush(c.tbl, c.spillSc)
		if err != nil {
			return err
		}
	}
	return nil
}

// line parses and aggregates one raw line in the given format.
func (c *aggCtx) line(line []byte, format metricstream.Format, lineOff int64, base uint64) error {
	if len(line) == 0 {
		return nil
	}
	if format == metricstream.FormatCSV {
		if bytes.HasPrefix(line, []byte("type,")) {
			return nil // header
		}
		if err := c.rec.ParseCSV(line); err != nil {
			return fmt.Errorf("offset %d: %w", lineOff, err)
		}
	} else {
		if err := c.rec.ParseNDJSON(line); err != nil {
			return fmt.Errorf("offset %d: %w", lineOff, err)
		}
	}
	return c.record(&c.rec, lineOff, base)
}

// processChunk aggregates every line whose first byte lies in [start, end).
// A line that straddles end is completed by extending the read; a line that
// straddles start belongs to the previous chunk and is skipped.
func (c *aggCtx) processChunk(ch chunk) error {
	rdStart := ch.start
	if rdStart > 0 {
		rdStart-- // read one extra byte to learn whether start is a line start
	}
	need := int(ch.end - rdStart)
	if cap(c.readBuf) < need {
		c.readBuf = make([]byte, need+chunkSize)
	}
	buf := c.readBuf[:need]
	n, err := ch.in.f.ReadAt(buf, rdStart)
	if err != nil && err != io.EOF {
		return fmt.Errorf("%s: %w", ch.in.path, err)
	}
	buf = buf[:n]
	atEOF := n < need

	pos := 0
	if ch.start > 0 {
		if len(buf) == 0 {
			return nil
		}
		if buf[0] == '\n' {
			pos = 1
		} else {
			j := bytes.IndexByte(buf, '\n')
			if j < 0 {
				return nil // chunk is the interior of one long line
			}
			pos = j + 1
		}
	}
	for pos < len(buf) {
		lineStart := rdStart + int64(pos)
		if lineStart >= ch.end {
			break
		}
		j := bytes.IndexByte(buf[pos:], '\n')
		for j < 0 && !atEOF {
			if buf, atEOF, err = extendRead(ch.in, rdStart, buf); err != nil {
				return err
			}
			if len(buf)-pos > maxLine {
				return fmt.Errorf("%s: line at offset %d exceeds %d bytes", ch.in.path, lineStart, maxLine)
			}
			j = bytes.IndexByte(buf[pos:], '\n')
		}
		var line []byte
		if j < 0 { // final unterminated line
			line = buf[pos:]
			pos = len(buf)
		} else {
			line = buf[pos : pos+j]
			pos += j + 1
		}
		if err := c.line(line, ch.in.format, lineStart, ch.in.base); err != nil {
			return fmt.Errorf("%s: %w", ch.in.path, err)
		}
	}
	if cap(buf) > cap(c.readBuf) {
		c.readBuf = buf
	}
	return nil
}

// extendRead grows buf with the next span of the file, reporting EOF.
func extendRead(in *input, rdStart int64, buf []byte) ([]byte, bool, error) {
	off := rdStart + int64(len(buf))
	old := len(buf)
	buf = append(buf, make([]byte, chunkSize)...)
	n, err := in.f.ReadAt(buf[old:], off)
	buf = buf[:old+n]
	if err == io.EOF {
		return buf, true, nil
	}
	if err != nil {
		return buf, false, fmt.Errorf("%s: %w", in.path, err)
	}
	return buf, n == 0, nil
}

// processSequential scans a non-seekable input (gzip, stdin) through the
// stream Scanner. Offsets are decompressed-stream line starts, so a
// gzipped file aggregates identically to its plain twin.
func (c *aggCtx) processSequential(in *input) (int64, error) {
	sc, err := metricstream.NewScanner(in.f, in.format)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", in.path, err)
	}
	var last int64
	for sc.Scan() {
		last = sc.Offset()
		if err := c.record(sc.Record(), sc.Offset(), in.base); err != nil {
			return last, fmt.Errorf("%s: %w", in.path, err)
		}
	}
	if sc.Err() != nil {
		return last, fmt.Errorf("%s: %w", in.path, sc.Err())
	}
	return last, nil
}
