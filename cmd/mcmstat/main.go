// Command mcmstat is an out-of-core analytics aggregator for the metrics
// streams the simulator CLIs emit (-metrics): it scans NDJSON or CSV
// streams — plain or gzipped, files or stdin — and reports
// min/mean/max/p95/p99 statistics per group (any subset of
// config/workload/kernel/gpm/kind/name) for resource utilization and cache
// hit rates.
//
// Large inputs scan in parallel over a fixed 1 MiB chunk grid; group
// tables that outgrow -mem spill through an external sort-merge
// (internal/extsort). Output is byte-identical for any -j, any spill
// partitioning, and the -naive reference implementation, because every
// aggregate merge is exact and commutative (see DESIGN.md §9).
//
// Usage:
//
//	mcmstat -group config,kind sweep.ndjson.gz
//	mcmsim -metrics - | mcmstat -group kind,gpm
package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mcmgpu/internal/extsort"
	"mcmgpu/internal/metricstream"
)

type options struct {
	dims   []int
	filter recordFilter
	mode   aggMode
	k      int
	mem    int
	tmp    string
	j      int
	out    string
	format metricstream.Format
	naive  bool
	bench  string
	inputs []string
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "mcmstat:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (*options, error) {
	fs := flag.NewFlagSet("mcmstat", flag.ContinueOnError)
	group := fs.String("group", "kind", "comma-separated group-by dimensions: any of config,workload,kernel,gpm,kind,name")
	records := fs.String("records", "sample", "record types to aggregate: sample, kernel, or both")
	exact := fs.Bool("exact", false, "keep every value for exact quantiles (more memory, may spill)")
	k := fs.Int("k", 4096, "reservoir size per group (ignored with -exact)")
	mem := fs.String("mem", "256m", "memory bound for group tables before spilling to disk (suffix k/m/g)")
	tmp := fs.String("tmp", "", "directory for spill files (default: system temp)")
	j := fs.Int("j", runtime.GOMAXPROCS(0), "parallel scan workers (output is identical for any value)")
	out := fs.String("o", "-", "output path (- for stdout; .gz compresses)")
	format := fs.String("format", "auto", "input format: auto, ndjson, or csv")
	naive := fs.Bool("naive", false, "use the slow reference implementation (for verification)")
	bench := fs.String("bench-json", "", "write a throughput report (rows, bytes, rows_per_sec) to this file")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	opts := &options{k: *k, tmp: *tmp, j: *j, out: *out, naive: *naive, bench: *bench}
	seen := map[string]bool{}
	for _, name := range strings.Split(*group, ",") {
		name = strings.TrimSpace(name)
		if name == "" || seen[name] {
			continue
		}
		seen[name] = true
		found := -1
		for d, dn := range dimNames {
			if dn == name {
				found = d
			}
		}
		if found < 0 {
			return nil, fmt.Errorf("unknown -group dimension %q (have %s)", name, strings.Join(dimNames[:], ","))
		}
		opts.dims = append(opts.dims, found)
	}
	if len(opts.dims) == 0 {
		return nil, fmt.Errorf("-group selects no dimensions")
	}
	sort.Ints(opts.dims) // canonical key order

	switch *records {
	case "sample":
		opts.filter = recSamples
	case "kernel":
		opts.filter = recKernels
	case "both":
		opts.filter = recBoth
	default:
		return nil, fmt.Errorf("bad -records %q (want sample, kernel, or both)", *records)
	}

	if *exact {
		opts.mode = modeExact
	}
	if opts.k < 16 {
		return nil, fmt.Errorf("-k %d too small (min 16)", opts.k)
	}

	var err error
	if opts.mem, err = parseMem(*mem); err != nil {
		return nil, err
	}
	if opts.j < 1 {
		opts.j = 1
	}

	switch *format {
	case "auto":
		opts.format = metricstream.FormatAuto
	case "ndjson":
		opts.format = metricstream.FormatNDJSON
	case "csv":
		opts.format = metricstream.FormatCSV
	default:
		return nil, fmt.Errorf("bad -format %q (want auto, ndjson, or csv)", *format)
	}

	opts.inputs = fs.Args()
	if len(opts.inputs) == 0 {
		opts.inputs = []string{"-"}
	}
	return opts, nil
}

// parseMem parses a byte count with an optional k/m/g suffix.
func parseMem(s string) (int, error) {
	mult := 1
	low := strings.ToLower(strings.TrimSpace(s))
	switch {
	case strings.HasSuffix(low, "k"):
		mult, low = 1<<10, low[:len(low)-1]
	case strings.HasSuffix(low, "m"):
		mult, low = 1<<20, low[:len(low)-1]
	case strings.HasSuffix(low, "g"):
		mult, low = 1<<30, low[:len(low)-1]
	}
	v, err := strconv.Atoi(low)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("bad -mem %q", s)
	}
	return v * mult, nil
}

// openInputs opens and classifies every input: regular plain files scan in
// parallel; gzipped files and stdin scan sequentially.
func openInputs(opts *options) ([]*input, func(), error) {
	var ins []*input
	closeAll := func() {
		for _, in := range ins {
			if in.f != os.Stdin {
				in.f.Close()
			}
		}
	}
	for i, path := range opts.inputs {
		in := &input{path: path, base: uint64(i) << fileBaseShift, format: opts.format}
		if path == "-" {
			in.path, in.f, in.seq = "stdin", os.Stdin, true
			ins = append(ins, in)
			continue
		}
		f, err := os.Open(path)
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		in.f = f
		st, err := f.Stat()
		if err != nil {
			closeAll()
			return nil, nil, err
		}
		if !st.Mode().IsRegular() {
			in.seq = true
			ins = append(ins, in)
			continue
		}
		in.size = st.Size()
		var head [2]byte
		if n, _ := f.ReadAt(head[:], 0); n == 2 && head[0] == 0x1f && head[1] == 0x8b {
			in.seq = true // gzip: sequential decompress
			ins = append(ins, in)
			continue
		}
		if in.format == metricstream.FormatAuto && in.size > 0 {
			if in.format, err = sniffFormat(f, in.size); err != nil {
				closeAll()
				return nil, nil, fmt.Errorf("%s: %w", path, err)
			}
		}
		ins = append(ins, in)
	}
	return ins, closeAll, nil
}

// sniffFormat detects NDJSON vs CSV from the first byte of the first
// non-empty line — the same rule the sequential Scanner applies — so a
// leading blank line classifies a chunk-scanned file exactly like its
// gzipped twin. A file of blank lines only stays FormatAuto (it parses to
// zero rows either way).
func sniffFormat(f *os.File, size int64) (metricstream.Format, error) {
	var buf [4096]byte
	for off := int64(0); off < size; {
		n, err := f.ReadAt(buf[:], off)
		for _, c := range buf[:n] {
			if c == '\n' {
				continue
			}
			if c == '{' {
				return metricstream.FormatNDJSON, nil
			}
			return metricstream.FormatCSV, nil
		}
		if err == io.EOF || n == 0 {
			break
		}
		if err != nil {
			return metricstream.FormatAuto, err
		}
		off += int64(n)
	}
	return metricstream.FormatAuto, nil
}

func run(args []string, stdout io.Writer) error {
	opts, err := parseFlags(args)
	if err != nil {
		return err
	}
	inputs, closeInputs, err := openInputs(opts)
	if err != nil {
		return err
	}
	defer closeInputs()

	// Output destination.
	var outW io.Writer = stdout
	var outC io.Closer
	if opts.out != "-" {
		w, _, err := metricstream.CreateOutput(opts.out)
		if err != nil {
			return err
		}
		outW, outC = w, w
	}
	out := bufio.NewWriterSize(outW, 256<<10)

	start := time.Now()
	var rows, inBytes int64
	for _, in := range inputs {
		inBytes += in.size
	}

	var spilled int
	if opts.naive {
		rows, err = runNaive(opts, inputs, out)
	} else {
		rows, spilled, err = runFast(opts, inputs, out)
	}
	if err != nil {
		return err
	}
	if err := out.Flush(); err != nil {
		return err
	}
	if outC != nil {
		if err := outC.Close(); err != nil {
			return err
		}
	}
	elapsed := time.Since(start)

	rps := float64(rows) / elapsed.Seconds()
	fmt.Fprintf(os.Stderr, "mcmstat: %d rows in %.3fs (%.0f rows/s, %d inputs, %d spilled runs)\n",
		rows, elapsed.Seconds(), rps, len(inputs), spilled)
	if opts.bench != "" {
		report := fmt.Sprintf(
			`{"rows":%d,"input_bytes":%d,"seconds":%.6f,"rows_per_sec":%.0f,"j":%d,"naive":%v,"spilled_runs":%d}`+"\n",
			rows, inBytes, elapsed.Seconds(), rps, opts.j, opts.naive, spilled)
		if err := os.WriteFile(opts.bench, []byte(report), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// runFast is the production path: chunk-parallel scan, open-addressing
// aggregation, external sort-merge on overflow.
func runFast(opts *options, inputs []*input, out *bufio.Writer) (int64, int, error) {
	sp := &spiller{sorter: extsort.New(opts.tmp, opts.mem/2, spillCompare)}
	defer sp.sorter.Close()

	// One scanning context per worker plus one for sequential inputs; the
	// table half of -mem splits across them.
	var chunks []chunk
	var seqIns []*input
	for _, in := range inputs {
		if in.seq {
			seqIns = append(seqIns, in)
			continue
		}
		for off := int64(0); off < in.size; off += chunkSize {
			end := off + chunkSize
			if end > in.size {
				end = in.size
			}
			chunks = append(chunks, chunk{in: in, start: off, end: end})
		}
	}
	nWorkers := opts.j
	if len(chunks) == 0 {
		nWorkers = 0
	}
	nCtx := nWorkers
	if len(seqIns) > 0 {
		nCtx++
	}
	if nCtx == 0 {
		nCtx = 1 // every input empty: keep one context so emit still runs
	}
	budget := opts.mem / 2 / nCtx
	if budget < 1<<16 {
		budget = 1 << 16
	}
	ctxs := make([]*aggCtx, 0, nCtx)
	for i := 0; i < nCtx; i++ {
		ctxs = append(ctxs, newAggCtx(opts.dims, opts.filter, opts.mode, opts.k, budget, sp))
	}

	// Parallel chunk scan: the chunk grid is fixed; only assignment varies
	// with -j, and merges are commutative, so output does not depend on -j.
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, nWorkers)
	for w := 0; w < nWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := ctxs[w]
			for {
				i := next.Add(1) - 1
				if i >= int64(len(chunks)) {
					return
				}
				if err := c.processChunk(chunks[i]); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	var seqErr error
	if len(seqIns) > 0 {
		c := ctxs[nWorkers]
		for _, in := range seqIns {
			if _, err := c.processSequential(in); err != nil {
				seqErr = err
				break
			}
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, 0, err
		}
	}
	if seqErr != nil {
		return 0, 0, seqErr
	}

	var rows int64
	for _, c := range ctxs {
		rows += c.rows
	}

	if sp.used {
		// Out-of-core: every table joins the external merge.
		for _, c := range ctxs {
			var err error
			if c.spillSc, err = sp.flush(c.tbl, c.spillSc); err != nil {
				return rows, 0, err
			}
		}
		return rows, sp.sorter.Spilled(), emitSpilled(opts, sp.sorter, out)
	}
	return rows, 0, emitTables(opts, ctxs, out)
}

// emitTables merges the per-worker tables in memory and writes groups in
// key order.
func emitTables(opts *options, ctxs []*aggCtx, out *bufio.Writer) error {
	dst := ctxs[0].tbl
	for _, c := range ctxs[1:] {
		t := c.tbl
		for i := range t.entries {
			e := &t.entries[i]
			dst.mergeIn(t.key(e), &e.agg)
		}
	}
	order := make([]int, len(dst.entries))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ea, eb := &dst.entries[order[a]], &dst.entries[order[b]]
		return bytes.Compare(dst.key(ea), dst.key(eb)) < 0
	})
	writeHeader(out, opts.dims)
	var scratch []float64
	for _, i := range order {
		e := &dst.entries[i]
		scratch = emitGroup(out, opts.dims, opts.mode, dst.key(e), &e.agg, scratch)
	}
	return nil
}

// emitSpilled streams the external merge, combining consecutive equal keys.
func emitSpilled(opts *options, sorter *extsort.Sorter, out *bufio.Writer) error {
	it, err := sorter.Sort()
	if err != nil {
		return err
	}
	writeHeader(out, opts.dims)
	var curKey []byte
	var cur groupAgg
	var g groupAgg
	have := false
	var scratch []float64
	for it.Next() {
		b := it.Bytes()
		klen, n := binary.Uvarint(b)
		if n <= 0 || int(klen) > len(b)-n {
			return fmt.Errorf("corrupt spilled record")
		}
		key, state := b[n:n+int(klen)], b[n+int(klen):]
		if err := parseState(state, opts.mode, opts.k, &g); err != nil {
			return err
		}
		if have && bytes.Equal(key, curKey) {
			cur.merge(opts.mode, &g)
			continue
		}
		if have {
			scratch = emitGroup(out, opts.dims, opts.mode, curKey, &cur, scratch)
		}
		curKey = append(curKey[:0], key...)
		cur = g
		g = groupAgg{}
		have = true
	}
	if it.Err() != nil {
		return it.Err()
	}
	if have {
		emitGroup(out, opts.dims, opts.mode, curKey, &cur, scratch)
	}
	return nil
}

// mergeIn folds a foreign (key, aggregate) pair into the table.
func (t *table) mergeIn(key []byte, g *groupAgg) {
	h := fnv1a(key)
	mask := uint64(len(t.slots) - 1)
	i := h & mask
	for {
		s := t.slots[i]
		if s == 0 {
			t.entries = append(t.entries, tEntry{
				keyOff: uint32(len(t.arena)),
				keyLen: uint32(len(key)),
				hash:   h,
				agg:    *g,
			})
			t.arena = append(t.arena, key...)
			t.slots[i] = int32(len(t.entries))
			if len(t.entries)*4 >= len(t.slots)*3 {
				t.grow()
			}
			return
		}
		e := &t.entries[s-1]
		if e.hash == h && string(t.key(e)) == string(key) {
			e.agg.merge(t.mode, g)
			return
		}
		i = (i + 1) & mask
	}
}

// writeHeader emits the output CSV header for the selected dimensions.
func writeHeader(out *bufio.Writer, dims []int) {
	for _, d := range dims {
		out.WriteString(dimNames[d])
		out.WriteByte(',')
	}
	out.WriteString("metric,n,min,mean,max,p95,p99,sum_busy,sum_units,sum_hits,sum_misses\n")
}

// writeCSVField writes one output field with RFC-4180 quoting.
func writeCSVField(out *bufio.Writer, v []byte) {
	if !bytes.ContainsAny(v, ",\"\n") {
		out.Write(v)
		return
	}
	out.WriteByte('"')
	for _, c := range v {
		if c == '"' {
			out.WriteByte('"')
		}
		out.WriteByte(c)
	}
	out.WriteByte('"')
}

// emitGroup writes one output row. Both the fast and naive paths call this
// with identical (key, aggregate) pairs, so their outputs are identical
// bytes.
func emitGroup(out *bufio.Writer, dims []int, mode aggMode, key []byte, g *groupAgg, scratch []float64) []float64 {
	rest := key
	for _, d := range dims {
		j := bytes.IndexByte(rest, keySep)
		if j < 0 {
			j = len(rest) // malformed key; emit what is there
		}
		val := rest[:j]
		if j < len(rest) {
			rest = rest[j+1:]
		} else {
			rest = nil
		}
		if d == dimKernel || d == dimGPM {
			val = unpad(val)
		}
		writeCSVField(out, val)
		out.WriteByte(',')
	}
	metric := byte(metricUtil)
	if len(rest) > 0 {
		metric = rest[0]
	}
	out.WriteString(metricName(metric))

	p95, p99, scratch := g.quantiles(mode, scratch)
	var num [32]byte
	writeUint := func(v uint64) {
		out.WriteByte(',')
		out.Write(strconv.AppendUint(num[:0], v, 10))
	}
	writeFloat := func(v float64) {
		out.WriteByte(',')
		out.Write(strconv.AppendFloat(num[:0], v, 'g', -1, 64))
	}
	writeUint(g.n)
	writeFloat(g.min)
	writeFloat(g.sum.Sum() / float64(g.n))
	writeFloat(g.max)
	writeFloat(p95)
	writeFloat(p99)
	writeFloat(g.sumBusy.Sum())
	writeUint(g.units)
	writeUint(g.hits)
	writeUint(g.misses)
	out.WriteByte('\n')
	return scratch
}
