package graph

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/bits"
	"os"
	"sort"
	"sync"
)

// Binary graph snapshots serialize the *frozen* representation directly —
// interned label and attribute tables, per-node labels, both adjacency
// directions, typed attribute columns with presence bitmaps, active
// domains, the label index and the per-(label, attribute) sorted
// permutation indexes — so ReadSnapshot reconstructs a frozen graph with
// no parsing, no column transposition and no re-sorting. Restart cost
// becomes proportional to I/O instead of to Freeze's O(n log n) index
// builds.
//
// Framing (all integers little-endian; "uvarint" is unsigned LEB128):
//
//	magic   [8]byte  "FSQGSNAP"
//	version uint32   (SnapshotVersion)
//	count   uint32   number of sections (fixed per version)
//	table   count × { tag [4]byte, offset uint64, length uint64, crc uint32 }
//	payloads, contiguous and in table order
//
// Sections appear in the fixed order of snapSectionOrder with contiguous
// offsets; readers reject reordered, overlapping, truncated or trailing
// bytes, and (on the heap decode path) verify each section's CRC-32
// (IEEE) before decoding it.
//
// The layout is memory-mappable: every hot section is a little-endian
// fixed-width array whose file offset is a multiple of 8, so an open file
// can be mmap'd and the arrays used in place as typed slice views
// (views.go) with no decode pass. Each section is zero-padded to a
// multiple of 8 bytes, which keeps the contiguous offsets aligned; logical
// (pre-padding) lengths are carried in MET2.
//
// Varint encoding survives only in two cold sections: SPIL (the label and
// attribute-name dictionaries, which must be materialized at open anyway,
// plus the payloads of rare mixed-kind columns) and DOM2 (the active
// domains, decoded lazily on first ActiveDomain call). String column
// values live in a lazily-materialized string table: STRO/STRB hold
// offsets and blob, SREF holds fixed-width 1-based refs per node, and no
// string is copied to the heap until one is first read.
//
// The loader validates every count, ID, sort order and bitmap invariant
// before the graph is returned, so a corrupt or hostile file yields an
// error, never a panic or an out-of-bounds view. The mapped open path
// skips only the CRC pass (checksumming the whole file would cost a full
// read and defeat O(open) restore); the ReadSnapshot/ReadSnapshotFile heap
// path keeps it.
//
// Versioning policy: WriteSnapshot emits SnapshotVersion and every reader
// accepts exactly that version, returning an error wrapping
// ErrSnapshotVersion for any other. Snapshots are a cache of a source
// graph, not an archival format — on an unknown version callers fall back
// to the TSV/JSON source and rewrite the snapshot.

// SnapshotVersion is the one format version WriteSnapshot emits and the
// readers accept.
const SnapshotVersion = 2

// snapMagic identifies a fairsqg graph snapshot file.
const snapMagic = "FSQGSNAP"

const snapHeaderBase = 8 + 4 + 4 // magic + version + section count
const snapTableEntry = 4 + 8 + 8 + 4

// snapSectionOrder is the canonical section layout.
var snapSectionOrder = []string{
	"MET2", // counts, degree and memory stats: snapMetaFields × uint64
	"SPIL", // varint spill: dictionaries + mixed-kind column payloads
	"STRO", // string table offsets: []uint64, strCount+1
	"STRB", // string table blob bytes
	"NLBL", // per-node label ids: []int32
	"OOFF", // out-adjacency CSR offsets: []uint64, n+1
	"OEDG", // out-adjacency flat edges: []{to int32, label int32}
	"IOFF", // in-adjacency CSR offsets: []uint64, n+1
	"IEDG", // in-adjacency flat edges
	"BLBL", // label buckets, ascending label ids: []int32
	"BOFF", // label bucket CSR offsets: []uint64, buckets+1
	"BMEM", // label bucket members, flat: []int32 node ids
	"CHDR", // per-attribute column headers: []{kind uint32, count uint32}
	"PRES", // presence bitmaps: attrs × words × uint64
	"NUMS", // numeric column payloads: #numeric × n × float64
	"BOOL", // bool column bitmaps: #bool × words × uint64
	"SREF", // string column refs: #string × n × uint32 (1-based, 0 = absent)
	"IKEY", // sorted index keys: []{label int32, attr int32}
	"IPRM", // sorted index permutations, concatenated: []int32
	"LPOS", // packed label+rank table: []uint64, n
	"SIGO", // out-edge label signatures: []uint64, n
	"SIGI", // in-edge label signatures: []uint64, n
	"ORUN", // out run-start table: []int32, n × stride (empty if stride 0)
	"IRUN", // in run-start table
	"DOM2", // active domains, varint, lazily materialized
}

// snapMetaFields is the number of uint64 fields in MET2, in order:
// nodes, edges, labels, attrs, maxOutDeg, maxInDeg, memColumnBytes,
// memIndexBytes, memIndexes, buckets, strCount, strBlobLen, runStride,
// spilLen, dom2Len.
const snapMetaFields = 15

// ErrSnapshotVersion is returned (wrapped) by every reader when the file
// carries the snapshot magic but a version other than SnapshotVersion;
// callers fall back to the graph's source format and rewrite the snapshot.
var ErrSnapshotVersion = errors.New("unsupported snapshot version")

func pad8(n int) int { return (n + 7) &^ 7 }

// ---------------------------------------------------------------------------
// Encoder

// WriteSnapshot serializes a frozen graph in the mappable snapshot
// layout. The write is deterministic: the same graph always
// produces the same bytes.
func WriteSnapshot(w io.Writer, g *Graph) error {
	if !g.frozen {
		return fmt.Errorf("graph: WriteSnapshot requires a frozen graph; call Freeze first")
	}
	if g.HasTombstones() {
		// The codec represents every node slot as live; persisting a
		// tombstoned graph goes through Live.Checkpoint's resurrect
		// protocol (snapshot of the resurrected graph + a WAL tombstone
		// batch), never through a direct write.
		return fmt.Errorf("graph: WriteSnapshot on a graph with %d tombstoned node(s); checkpoint via the WAL instead", g.deadCount)
	}
	e := &snapBuilder{g: g, strIdx: make(map[string]uint32)}
	return writeSnapFraming(w, e.build())
}

// writeSnapFraming writes the header + section table + payloads, one
// payload per snapSectionOrder entry.
func writeSnapFraming(w io.Writer, payloads [][]byte) error {
	var hdr bytes.Buffer
	hdr.WriteString(snapMagic)
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], SnapshotVersion)
	hdr.Write(u32[:])
	binary.LittleEndian.PutUint32(u32[:], uint32(len(payloads)))
	hdr.Write(u32[:])
	offset := uint64(snapHeaderBase + snapTableEntry*len(payloads))
	for i, p := range payloads {
		hdr.WriteString(snapSectionOrder[i])
		var u64 [8]byte
		binary.LittleEndian.PutUint64(u64[:], offset)
		hdr.Write(u64[:])
		binary.LittleEndian.PutUint64(u64[:], uint64(len(p)))
		hdr.Write(u64[:])
		binary.LittleEndian.PutUint32(u32[:], crc32.ChecksumIEEE(p))
		hdr.Write(u32[:])
		offset += uint64(len(p))
	}
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return fmt.Errorf("graph: writing snapshot header: %w", err)
	}
	for i, p := range payloads {
		if _, err := w.Write(p); err != nil {
			return fmt.Errorf("graph: writing snapshot section %s: %w", snapSectionOrder[i], err)
		}
	}
	return nil
}

// snapBuilder carries the string-table interning state. Refs are
// 1-based: 0 is the absent marker in SREF.
type snapBuilder struct {
	g      *Graph
	strs   []string
	strIdx map[string]uint32
}

func (e *snapBuilder) ref(s string) uint32 {
	if i, ok := e.strIdx[s]; ok {
		return i
	}
	i := uint32(len(e.strs)) + 1
	e.strs = append(e.strs, s)
	e.strIdx[s] = i
	return i
}

// colStr reads one present string value regardless of representation
// (heap strings or mapped string-table refs).
func colStr(c *column, i int) string {
	if c.strs.n > 0 {
		return c.strs.At(i)
	}
	return c.tab.str(c.refs[i])
}

func padded(b []byte) []byte {
	if rem := len(b) % 8; rem != 0 {
		b = append(b, make([]byte, 8-rem)...)
	}
	return b
}

func putU64s(buf *bytes.Buffer, xs ...uint64) {
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], x)
		buf.Write(b[:])
	}
}

func putUvarint(buf *bytes.Buffer, x uint64) {
	var tmp [binary.MaxVarintLen64]byte
	buf.Write(tmp[:binary.PutUvarint(tmp[:], x)])
}

func putI32(buf *bytes.Buffer, x int32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(x))
	buf.Write(b[:])
}

// putValueInline encodes one Value with strings inline (uvarint length +
// bytes), the form the SPIL and DOM2 sections use.
func putValueInline(buf *bytes.Buffer, v Value) {
	buf.WriteByte(byte(v.kind))
	switch v.kind {
	case KindBool:
		if v.num != 0 {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	case KindNumber:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v.num))
		buf.Write(b[:])
	case KindString:
		putUvarint(buf, uint64(len(v.str)))
		buf.WriteString(v.str)
	}
}

func (e *snapBuilder) build() [][]byte {
	g := e.g
	n := g.NumNodes()

	// SPIL: dictionaries first, then mixed-column payloads.
	var spil bytes.Buffer
	for _, s := range g.labels {
		putUvarint(&spil, uint64(len(s)))
		spil.WriteString(s)
	}
	for _, s := range g.attrTable {
		putUvarint(&spil, uint64(len(s)))
		spil.WriteString(s)
	}
	for a := range g.cols {
		c := &g.cols[a]
		if c.count == 0 || c.kind != KindNull {
			continue
		}
		for i := 0; i < n; i++ {
			if c.has(NodeID(i)) {
				putValueInline(&spil, c.vals[i])
			}
		}
	}
	spilLen := spil.Len()

	// NLBL.
	var nlbl bytes.Buffer
	g.nodeLabels.spans(func(ls []LabelID) {
		for _, l := range ls {
			putI32(&nlbl, int32(l))
		}
	})

	// Adjacency: CSR offsets + flat edges per direction.
	encodeAdj := func(adj Table[[]Edge]) (offs, edges []byte) {
		var ob, eb bytes.Buffer
		total := uint64(0)
		putU64s(&ob, 0)
		adj.spans(func(rows [][]Edge) {
			for _, es := range rows {
				total += uint64(len(es))
				putU64s(&ob, total)
				for _, ed := range es {
					putI32(&eb, int32(ed.To))
					putI32(&eb, int32(ed.Label))
				}
			}
		})
		return ob.Bytes(), eb.Bytes()
	}
	ooff, oedg := encodeAdj(g.out)
	ioff, iedg := encodeAdj(g.in)

	// Label buckets, ascending by label.
	bucketLabels := make([]LabelID, 0, len(g.byLabel))
	for l := range g.byLabel {
		bucketLabels = append(bucketLabels, l)
	}
	sort.Slice(bucketLabels, func(i, j int) bool { return bucketLabels[i] < bucketLabels[j] })
	var blbl, boff, bmem bytes.Buffer
	covered := uint64(0)
	putU64s(&boff, 0)
	for _, l := range bucketLabels {
		putI32(&blbl, int32(l))
		members := g.byLabel[l]
		covered += uint64(len(members))
		putU64s(&boff, covered)
		for _, v := range members {
			putI32(&bmem, int32(v))
		}
	}

	// Columns: headers + fixed-width payload sections. String columns
	// intern into the table here, in (attr, node) order — deterministic.
	var chdr, pres, nums, boolb, sref bytes.Buffer
	var u32b [4]byte
	for a := range g.cols {
		c := &g.cols[a]
		binary.LittleEndian.PutUint32(u32b[:], uint32(c.kind))
		chdr.Write(u32b[:])
		binary.LittleEndian.PutUint32(u32b[:], uint32(c.count))
		chdr.Write(u32b[:])
		c.present.spans(func(ws []uint64) { putU64s(&pres, ws...) })
		if c.count == 0 {
			continue
		}
		// A column no batch has touched since nodes were added stops at its
		// base's slot count (ApplyBatch shares it); the slots past it are absent.
		switch c.kind {
		case KindNumber:
			c.nums.spans(func(xs []float64) {
				for _, x := range xs {
					putU64s(&nums, math.Float64bits(x))
				}
			})
			nums.Write(make([]byte, 8*(n-c.nums.n)))
		case KindBool:
			c.bools.spans(func(ws []uint64) { putU64s(&boolb, ws...) })
			boolb.Write(make([]byte, 8*(c.present.n-c.bools.n)))
		case KindString:
			for i := 0; i < n; i++ {
				r := uint32(0)
				if c.has(NodeID(i)) {
					r = e.ref(colStr(c, i))
				}
				binary.LittleEndian.PutUint32(u32b[:], r)
				sref.Write(u32b[:])
			}
		}
	}

	// Sorted indexes: keys ascending by (label, attr), permutations
	// concatenated in key order.
	keys := make([]labelAttr, 0, len(g.indexes))
	for k := range g.indexes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].label != keys[j].label {
			return keys[i].label < keys[j].label
		}
		return keys[i].attr < keys[j].attr
	})
	var ikey, iprm bytes.Buffer
	for _, k := range keys {
		putI32(&ikey, int32(k.label))
		putI32(&ikey, int32(k.attr))
		for _, v := range g.indexes[k].nodes() {
			putI32(&iprm, int32(v))
		}
	}

	// Derived tables — serialized so mapped open skips buildDerived.
	var lpos, sigo, sigi, orun, irun bytes.Buffer
	g.labelPos.spans(func(xs []uint64) { putU64s(&lpos, xs...) })
	g.sigOut.spans(func(xs []uint64) { putU64s(&sigo, xs...) })
	g.sigIn.spans(func(xs []uint64) { putU64s(&sigi, xs...) })
	for v := 0; v < n && g.outRuns.Valid(); v++ {
		for l, x := range g.outRuns.row(v) {
			putI32(&orun, x)
			putI32(&irun, g.inRuns.row(v)[l])
		}
	}

	// DOM2 (varint, inline strings).
	var dom2 bytes.Buffer
	for _, dom := range g.domainList() {
		putUvarint(&dom2, uint64(len(dom)))
		for _, v := range dom {
			putValueInline(&dom2, v)
		}
	}
	dom2Len := dom2.Len()

	// String table.
	var stro, strb bytes.Buffer
	blobLen := uint64(0)
	putU64s(&stro, 0)
	for _, s := range e.strs {
		blobLen += uint64(len(s))
		putU64s(&stro, blobLen)
		strb.WriteString(s)
	}

	var met2 bytes.Buffer
	putU64s(&met2,
		uint64(n), uint64(g.numEdges), uint64(len(g.labels)), uint64(len(g.attrTable)),
		uint64(g.maxOutDeg), uint64(g.maxInDeg),
		uint64(g.mem.ColumnBytes), uint64(g.mem.IndexBytes), uint64(g.mem.Indexes),
		uint64(len(bucketLabels)), uint64(len(e.strs)), blobLen,
		uint64(g.outRuns.stride), uint64(spilLen), uint64(dom2Len))

	return [][]byte{
		padded(met2.Bytes()), padded(spil.Bytes()), padded(stro.Bytes()), padded(strb.Bytes()),
		padded(nlbl.Bytes()), padded(ooff), padded(oedg), padded(ioff), padded(iedg),
		padded(blbl.Bytes()), padded(boff.Bytes()), padded(bmem.Bytes()),
		padded(chdr.Bytes()), padded(pres.Bytes()), padded(nums.Bytes()),
		padded(boolb.Bytes()), padded(sref.Bytes()),
		padded(ikey.Bytes()), padded(iprm.Bytes()),
		padded(lpos.Bytes()), padded(sigo.Bytes()), padded(sigi.Bytes()),
		padded(orun.Bytes()), padded(irun.Bytes()), padded(dom2.Bytes()),
	}
}

// ---------------------------------------------------------------------------
// Loader

// ReadSnapshot reconstructs a frozen graph from the snapshot format. Every
// structural claim the file makes is validated before it drives an
// allocation — counts are bounded by the bytes that must carry them, IDs
// by the dictionaries, orderings by the frozen-graph invariants — so
// corrupt or hostile inputs produce an error (naming the failing section)
// rather than a panic or an outsized allocation.
func ReadSnapshot(r io.Reader) (*Graph, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: reading snapshot: %w", err)
	}
	return readSnapshotBytes(data)
}

// ReadSnapshotFile is ReadSnapshot for a local file: it stats the file and
// reads it in one pre-sized allocation instead of growing a buffer through
// an io.Reader copy, then decodes from that buffer.
func ReadSnapshotFile(path string) (*Graph, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("graph: reading snapshot %s: %w", path, err)
	}
	return readSnapshotBytes(data)
}

func readSnapshotBytes(data []byte) (*Graph, error) {
	// The loader serves fixed-width sections as views over the buffer,
	// which requires 8-byte base alignment; heap buffers are realigned by
	// copy in the (rare) case the allocator misaligned one.
	data = alignSnapshotBuffer(data)
	sections, err := parseSnapSections(data)
	if err != nil {
		return nil, err
	}
	return decodeSnapshot(data, sections, nil, true)
}

// snapSection is one decoded section-table entry plus its payload.
type snapSection struct {
	tag     string
	payload []byte
	crc     uint32
}

// parseSnapSections validates the framing — magic, the version gate (any
// version other than SnapshotVersion is an error wrapping
// ErrSnapshotVersion), section table against the canonical order,
// contiguous offsets, no truncation, no trailing bytes — and returns the
// sections keyed by tag. Payloads alias data.
func parseSnapSections(data []byte) (map[string]*snapSection, error) {
	if len(data) < snapHeaderBase {
		return nil, fmt.Errorf("graph: snapshot too short (%d bytes)", len(data))
	}
	if string(data[:8]) != snapMagic {
		return nil, fmt.Errorf("graph: bad snapshot magic %q", data[:8])
	}
	if version := binary.LittleEndian.Uint32(data[8:12]); version != SnapshotVersion {
		return nil, fmt.Errorf("graph: %w: file is version %d, this build reads version %d", ErrSnapshotVersion, version, SnapshotVersion)
	}
	count := binary.LittleEndian.Uint32(data[12:16])
	if int(count) != len(snapSectionOrder) {
		return nil, fmt.Errorf("graph: snapshot has %d sections, this version defines %d", count, len(snapSectionOrder))
	}
	tableEnd := snapHeaderBase + snapTableEntry*int(count)
	if len(data) < tableEnd {
		return nil, fmt.Errorf("graph: snapshot truncated inside section table")
	}
	sections := make(map[string]*snapSection, count)
	running := uint64(tableEnd)
	for i := 0; i < int(count); i++ {
		ent := data[snapHeaderBase+snapTableEntry*i:]
		tag := string(ent[:4])
		offset := binary.LittleEndian.Uint64(ent[4:12])
		length := binary.LittleEndian.Uint64(ent[12:20])
		crc := binary.LittleEndian.Uint32(ent[20:24])
		if tag != snapSectionOrder[i] {
			return nil, fmt.Errorf("graph: snapshot section %d is %q, want %q (unknown or out of order)", i, tag, snapSectionOrder[i])
		}
		if offset != running {
			return nil, fmt.Errorf("graph: snapshot section %s at offset %d, want %d (sections must be contiguous)", tag, offset, running)
		}
		if length > uint64(len(data))-running {
			return nil, fmt.Errorf("graph: snapshot section %s truncated (claims %d bytes, %d remain)", tag, length, uint64(len(data))-running)
		}
		sections[tag] = &snapSection{tag: tag, payload: data[running : running+length], crc: crc}
		running += length
	}
	if running != uint64(len(data)) {
		return nil, fmt.Errorf("graph: snapshot carries %d trailing bytes after the last section", uint64(len(data))-running)
	}
	return sections, nil
}

// snapMeta is the decoded MET2 section.
type snapMeta struct {
	nodes, edges, labels, attrs int
	maxOutDeg, maxInDeg         int
	mem                         MemoryStats
	buckets                     int
	strCount                    int
	strBlobLen                  int
	runStride                   int
	spilLen, dom2Len            int
}

// varCursor is a bounds-checked cursor over one varint section.
type varCursor struct {
	sec string
	buf []byte
	pos int
}

func (c *varCursor) errf(format string, args ...any) error {
	return fmt.Errorf("graph: snapshot section %s: %s", c.sec, fmt.Sprintf(format, args...))
}

func (c *varCursor) remaining() int { return len(c.buf) - c.pos }

func (c *varCursor) uvarint() (uint64, error) {
	x, n := binary.Uvarint(c.buf[c.pos:])
	if n <= 0 {
		return 0, c.errf("bad uvarint at byte %d", c.pos)
	}
	c.pos += n
	return x, nil
}

func (c *varCursor) bytes(n int) ([]byte, error) {
	if c.remaining() < n {
		return nil, c.errf("truncated %d-byte field at byte %d", n, c.pos)
	}
	b := c.buf[c.pos : c.pos+n]
	c.pos += n
	return b, nil
}

// inlineString reads a uvarint-length-prefixed string, copying onto the
// heap (spill strings never alias the backing buffer).
func (c *varCursor) inlineString() (string, error) {
	l, err := c.uvarint()
	if err != nil {
		return "", err
	}
	if l > uint64(c.remaining()) {
		return "", c.errf("string length %d exceeds the %d bytes left", l, c.remaining())
	}
	b, _ := c.bytes(int(l))
	return string(b), nil
}

// valueInline decodes one putValueInline-encoded Value.
func (c *varCursor) valueInline() (Value, error) {
	b, err := c.bytes(1)
	if err != nil {
		return Null, err
	}
	switch Kind(b[0]) {
	case KindNull:
		return Null, nil
	case KindBool:
		vb, err := c.bytes(1)
		if err != nil {
			return Null, err
		}
		if vb[0] > 1 {
			return Null, c.errf("bool value byte is %d, want 0 or 1", vb[0])
		}
		return Bool(vb[0] == 1), nil
	case KindNumber:
		vb, err := c.bytes(8)
		if err != nil {
			return Null, err
		}
		return Num(math.Float64frombits(binary.LittleEndian.Uint64(vb))), nil
	case KindString:
		s, err := c.inlineString()
		if err != nil {
			return Null, err
		}
		return Str(s), nil
	default:
		return Null, c.errf("unknown value kind %d", b[0])
	}
}

func secErr(tag, format string, args ...any) error {
	return fmt.Errorf("graph: snapshot section %s: %s", tag, fmt.Sprintf(format, args...))
}

func decodeMeta(payload []byte) (*snapMeta, error) {
	if len(payload) != snapMetaFields*8 {
		return nil, secErr("MET2", "length %d, want %d", len(payload), snapMetaFields*8)
	}
	f := make([]uint64, snapMetaFields)
	for i := range f {
		f[i] = binary.LittleEndian.Uint64(payload[8*i:])
	}
	const maxID = math.MaxInt32
	for i, x := range f[:4] {
		if x > maxID {
			return nil, secErr("MET2", "count %d is %d, beyond the int32 id space", i, x)
		}
	}
	m := &snapMeta{
		nodes: int(f[0]), edges: int(f[1]), labels: int(f[2]), attrs: int(f[3]),
		maxOutDeg: int(f[4]), maxInDeg: int(f[5]),
		mem: MemoryStats{ColumnBytes: int64(f[6]), IndexBytes: int64(f[7]), Indexes: int(f[8])},
	}
	if f[8] > maxID || f[9] > uint64(m.labels) || f[10] > maxID {
		return nil, secErr("MET2", "bucket/index/string counts out of range")
	}
	m.buckets, m.strCount = int(f[9]), int(f[10])
	if f[11] > uint64(math.MaxInt64/2) || f[13] > uint64(math.MaxInt64/2) || f[14] > uint64(math.MaxInt64/2) {
		return nil, secErr("MET2", "section lengths out of range")
	}
	m.strBlobLen, m.spilLen, m.dom2Len = int(f[11]), int(f[13]), int(f[14])
	if f[12] != 0 {
		if f[12] != uint64(m.labels)+1 {
			return nil, secErr("MET2", "run stride %d, want 0 or %d", f[12], m.labels+1)
		}
		if uint64(m.nodes)*f[12] > maxRunTableEntries {
			return nil, secErr("MET2", "run tables would hold %d entries, cap is %d", uint64(m.nodes)*f[12], maxRunTableEntries)
		}
		m.runStride = int(f[12])
	}
	if m.maxOutDeg > m.edges || m.maxInDeg > m.edges {
		return nil, secErr("MET2", "max degree exceeds edge count")
	}
	return m, nil
}

// decodeSnapshot builds a frozen graph over the parsed sections.
// Fixed-width sections become typed views aliasing the buffer (zero-copy
// on little-endian hosts); dictionaries and mixed columns are decoded from
// SPIL; strings and domains stay lazy. backing, when non-nil, is attached
// as the graph's ref-counted store (the mapped path); nil means the buffer
// is a plain heap allocation kept alive by the views themselves.
func decodeSnapshot(data []byte, sections map[string]*snapSection, backing *snapBacking, verifyCRC bool) (*Graph, error) {
	if verifyCRC {
		for _, tag := range snapSectionOrder {
			s := sections[tag]
			if got := crc32.ChecksumIEEE(s.payload); got != s.crc {
				return nil, secErr(tag, "CRC mismatch (file has %08x, payload sums to %08x)", s.crc, got)
			}
		}
	}
	meta, err := decodeMeta(sections["MET2"].payload)
	if err != nil {
		return nil, err
	}
	n, words := meta.nodes, (meta.nodes+63)/64

	// Every fixed-width section's length is implied by MET2 (+ CHDR for
	// the per-kind payload sections, + the buckets for IPRM); check the
	// implied ones now so all view slicing below is in bounds.
	wantLen := func(tag string, logical int) error {
		if have := len(sections[tag].payload); have != pad8(logical) {
			return secErr(tag, "length %d, want %d (%d padded)", have, pad8(logical), logical)
		}
		return nil
	}
	for _, c := range []struct {
		tag     string
		logical int
	}{
		{"SPIL", meta.spilLen},
		{"STRO", 8 * (meta.strCount + 1)},
		{"STRB", meta.strBlobLen},
		{"NLBL", 4 * n},
		{"OOFF", 8 * (n + 1)},
		{"OEDG", 8 * meta.edges},
		{"IOFF", 8 * (n + 1)},
		{"IEDG", 8 * meta.edges},
		{"BLBL", 4 * meta.buckets},
		{"BOFF", 8 * (meta.buckets + 1)},
		{"BMEM", 4 * n},
		{"CHDR", 8 * meta.attrs},
		{"PRES", 8 * words * meta.attrs},
		{"IKEY", 8 * meta.mem.Indexes},
		{"LPOS", 8 * n},
		{"SIGO", 8 * n},
		{"SIGI", 8 * n},
		{"ORUN", 4 * n * meta.runStride},
		{"IRUN", 4 * n * meta.runStride},
		{"DOM2", meta.dom2Len},
	} {
		if err := wantLen(c.tag, c.logical); err != nil {
			return nil, err
		}
	}

	g := &Graph{
		numEdges:  meta.edges,
		maxOutDeg: meta.maxOutDeg,
		maxInDeg:  meta.maxInDeg,
		mem:       meta.mem,
		version:   1,
		lineage:   nextLineage(),
		frozen:    true,
	}

	// SPIL: dictionaries (always materialized — the API needs the maps).
	spil := &varCursor{sec: "SPIL", buf: sections["SPIL"].payload[:meta.spilLen]}
	decodeDict := func(count int, what string) ([]string, error) {
		var names []string
		if count > 0 {
			if count > spil.remaining() {
				return nil, spil.errf("%s count %d exceeds the %d bytes left", what, count, spil.remaining())
			}
			names = make([]string, count)
		}
		for i := range names {
			s, err := spil.inlineString()
			if err != nil {
				return nil, err
			}
			names[i] = s
		}
		return names, nil
	}
	if g.labels, err = decodeDict(meta.labels, "label"); err != nil {
		return nil, err
	}
	g.labelIDs = make(map[string]LabelID, meta.labels)
	for i, s := range g.labels {
		if _, dup := g.labelIDs[s]; dup {
			return nil, spil.errf("duplicate label dictionary entry %q", s)
		}
		g.labelIDs[s] = LabelID(i)
	}
	if g.attrTable, err = decodeDict(meta.attrs, "attribute"); err != nil {
		return nil, err
	}
	g.attrIDs = make(map[string]AttrID, meta.attrs)
	for i, s := range g.attrTable {
		if _, dup := g.attrIDs[s]; dup {
			return nil, spil.errf("duplicate attribute dictionary entry %q", s)
		}
		g.attrIDs[s] = AttrID(i)
	}

	// String table views; validated here, materialized lazily.
	offs := viewU64(sections["STRO"].payload[:8*(meta.strCount+1)])
	if offs[0] != 0 {
		return nil, secErr("STRO", "first offset %d, want 0", offs[0])
	}
	for i := 1; i < len(offs); i++ {
		if offs[i] < offs[i-1] {
			return nil, secErr("STRO", "offsets not monotonic at entry %d", i)
		}
	}
	if offs[len(offs)-1] != uint64(meta.strBlobLen) {
		return nil, secErr("STRO", "final offset %d, blob has %d bytes", offs[len(offs)-1], meta.strBlobLen)
	}
	g.strTab = &strTable{offs: offs, blob: sections["STRB"].payload[:meta.strBlobLen]}

	// Node labels (range-checked in the parallel phase below).
	nodeLabels := viewLabelIDs(sections["NLBL"].payload[:4*n])
	g.nodeLabels = TableOf(nodeLabels)

	// Adjacency: CSR views + per-node slice headers, validated against the
	// frozen sort order, the declared degrees, the signature tables and —
	// when a run table is present — the run starts, all in a single pass.
	// The run table partitions each node's edge list into one contiguous
	// run per label, so "boundaries go 0 → degree monotonically and every
	// edge inside run l carries label l with non-decreasing endpoints" is
	// exactly the frozen sort + run-start + signature invariant, checked with
	// one comparison per edge instead of a second full replay.
	sigOut := viewU64(sections["SIGO"].payload[:8*n])
	sigIn := viewU64(sections["SIGI"].payload[:8*n])
	g.sigOut, g.sigIn = TableOf(sigOut), TableOf(sigIn)
	decodeAdj := func(offTag, edgeTag, sigTag, runTag string, sigs []uint64, starts []int32, wantMaxDeg int) ([][]Edge, error) {
		csr := viewU64(sections[offTag].payload[:8*(n+1)])
		edges := viewEdges(sections[edgeTag].payload[:8*meta.edges])
		// On little-endian hosts each Edge{To, Label} is the u64
		// Label<<32|To, so inside a label-l run "label == l, endpoint in
		// [0,n), endpoints non-decreasing" collapses to two unsigned u64
		// compares per edge against the raw section words.
		var eu []uint64
		if hostLittleEndian {
			eu = viewU64(sections[edgeTag].payload[:8*meta.edges])
		}
		if csr[0] != 0 {
			return nil, secErr(offTag, "first offset %d, want 0", csr[0])
		}
		if csr[n] != uint64(meta.edges) {
			return nil, secErr(offTag, "edge lists sum to %d, MET2 declares %d", csr[n], meta.edges)
		}
		var adj [][]Edge
		if n > 0 {
			adj = make([][]Edge, n)
		}
		maxDeg := 0
		stride := meta.runStride
		for v := 0; v < n; v++ {
			lo, hi := csr[v], csr[v+1]
			if lo > hi {
				return nil, secErr(offTag, "offsets not monotonic at node %d", v)
			}
			es := edges[lo:hi]
			sig := uint64(0)
			if starts != nil {
				seg := starts[v*stride : v*stride+stride]
				if seg[0] != 0 {
					return nil, secErr(runTag, "node %d label 0 run starts at %d, want 0", v, seg[0])
				}
				if seg[stride-1] != int32(len(es)) {
					return nil, secErr(runTag, "node %d terminating boundary %d, degree is %d", v, seg[stride-1], len(es))
				}
				s := int32(0)
				for l := 1; l < stride; l++ {
					e := seg[l]
					if e < s {
						return nil, secErr(runTag, "node %d label %d run boundaries inverted (%d > %d)", v, l-1, s, e)
					}
					if e == s {
						continue
					}
					sig |= 1 << (uint(l-1) & 63)
					// Hot loop: one fused branch per edge; the precise
					// diagnosis happens on the (cold) failure path.
					if eu != nil {
						base64 := uint64(uint32(l-1)) << 32
						prev := base64
						un := uint64(n)
						for k, x := range eu[lo+uint64(s) : lo+uint64(e)] {
							if x-base64 >= un || x < prev {
								return nil, badRunEdge(edgeTag, v, l-1, int(s)+k, es[int(s)+k], n)
							}
							prev = x
						}
					} else {
						prevTo := NodeID(-1)
						for j, ed := range es[s:e] {
							if int(ed.Label) != l-1 || uint32(ed.To) >= uint32(n) || ed.To < prevTo {
								return nil, badRunEdge(edgeTag, v, l-1, int(s)+j, ed, n)
							}
							prevTo = ed.To
						}
					}
					s = e
				}
			} else {
				for j, ed := range es {
					if uint32(ed.To) >= uint32(n) {
						return nil, secErr(edgeTag, "node %d edge %d endpoint %d out of range [0,%d)", v, j, ed.To, n)
					}
					if uint32(ed.Label) >= uint32(meta.labels) {
						return nil, secErr(edgeTag, "node %d edge %d label %d out of range [0,%d)", v, j, ed.Label, meta.labels)
					}
					if j > 0 {
						prev := es[j-1]
						if prev.Label > ed.Label || (prev.Label == ed.Label && prev.To > ed.To) {
							return nil, secErr(edgeTag, "node %d edges not sorted by (label, endpoint) at position %d", v, j)
						}
					}
					sig |= LabelSigBit(ed.Label)
				}
			}
			if sig != sigs[v] {
				return nil, secErr(sigTag, "node %d signature %016x, edges imply %016x", v, sigs[v], sig)
			}
			if len(es) > 0 {
				adj[v] = es
			}
			if len(es) > maxDeg {
				maxDeg = len(es)
			}
		}
		if maxDeg != wantMaxDeg {
			return nil, secErr(offTag, "maximum degree %d, MET2 declares %d", maxDeg, wantMaxDeg)
		}
		return adj, nil
	}
	// Bucket, position and run-table views; contents are validated in the
	// parallel phase.
	lpos := viewU64(sections["LPOS"].payload[:8*n])
	g.labelPos = TableOf(lpos)
	bucketLabels := viewLabelIDs(sections["BLBL"].payload[:4*meta.buckets])
	boff := viewU64(sections["BOFF"].payload[:8*(meta.buckets+1)])
	bmem := viewNodeIDs(sections["BMEM"].payload[:4*n])
	orun := viewI32(sections["ORUN"].payload[:4*n*meta.runStride])
	irun := viewI32(sections["IRUN"].payload[:4*n*meta.runStride])
	g.outRuns, g.inRuns = flatRuns(orun, meta.runStride), flatRuns(irun, meta.runStride)

	// Columns: headers, presence bitmaps and typed payload views are
	// assigned here (the spill cursor is sequential, so mixed columns must
	// decode in order); the O(n) per-column content checks run in the
	// parallel phase.
	chdr := sections["CHDR"].payload
	presAll := sections["PRES"].payload
	numsAll := sections["NUMS"].payload
	boolAll := sections["BOOL"].payload
	srefAll := sections["SREF"].payload
	g.cols, g.rows = make([]column, meta.attrs), make([]rowSlot, meta.attrs)
	numOff, boolOff, srefOff := 0, 0, 0
	for a := range g.cols {
		c := &g.cols[a]
		kind := Kind(binary.LittleEndian.Uint32(chdr[8*a:]))
		cnt := binary.LittleEndian.Uint32(chdr[8*a+4:])
		if kind > KindString {
			return nil, secErr("CHDR", "attribute %d: unknown column kind %d", a, kind)
		}
		if cnt > uint32(n) {
			return nil, secErr("CHDR", "attribute %d: count %d exceeds %d nodes", a, cnt, n)
		}
		c.kind, c.count = kind, int(cnt)
		c.present = TableOf(viewU64(presAll[8*words*a : 8*words*(a+1)]))
		if c.count == 0 {
			if kind != KindNull {
				return nil, secErr("CHDR", "attribute %d: kind %d with zero count", a, kind)
			}
			continue
		}
		switch kind {
		case KindNumber:
			if len(numsAll) < numOff+8*n {
				return nil, secErr("NUMS", "attribute %d: truncated float payload", a)
			}
			c.nums = TableOf(viewF64(numsAll[numOff : numOff+8*n]))
			numOff += 8 * n
		case KindBool:
			if len(boolAll) < boolOff+8*words {
				return nil, secErr("BOOL", "attribute %d: truncated bool bitmap", a)
			}
			c.bools = TableOf(viewU64(boolAll[boolOff : boolOff+8*words]))
			boolOff += 8 * words
		case KindString:
			if len(srefAll) < srefOff+4*n {
				return nil, secErr("SREF", "attribute %d: truncated ref payload", a)
			}
			c.refs = viewU32(srefAll[srefOff : srefOff+4*n])
			c.tab = g.strTab
			srefOff += 4 * n
		default: // KindNull with count > 0: mixed values from the spill
			c.vals = make([]Value, n)
			for i := 0; i < n; i++ {
				if bitGet(&c.present, i) {
					if c.vals[i], err = spil.valueInline(); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	if spil.remaining() != 0 {
		return nil, spil.errf("%d undecoded trailing bytes", spil.remaining())
	}
	if pad8(numOff) != len(numsAll) {
		return nil, secErr("NUMS", "section holds %d bytes, columns need %d", len(numsAll), numOff)
	}
	if pad8(boolOff) != len(boolAll) {
		return nil, secErr("BOOL", "section holds %d bytes, columns need %d", len(boolAll), boolOff)
	}
	if pad8(srefOff) != len(srefAll) {
		return nil, secErr("SREF", "section holds %d bytes, columns need %d", len(srefAll), srefOff)
	}

	ikey := viewI32(sections["IKEY"].payload[:8*meta.mem.Indexes])
	iprm := viewNodeIDs(sections["IPRM"].payload)

	// Parallel validation phase. Every frozen-graph invariant is enforced,
	// but the scans are independent of each other: each task only reads the
	// immutable views assigned above and writes its own disjoint set of
	// Graph fields, so the open costs the slowest task, not the sum. This
	// is what keeps the mapped open fast without trusting the file.
	var wg sync.WaitGroup
	taskErrs := make([]error, 5)
	task := func(slot int, f func() error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			taskErrs[slot] = f()
		}()
	}

	// Out- and in-adjacency, each validated jointly with its run table.
	task(0, func() error {
		adj, err := decodeAdj("OOFF", "OEDG", "SIGO", "ORUN", sigOut, orun, meta.maxOutDeg)
		if err == nil {
			g.out = TableOf(adj)
		}
		return err
	})
	task(1, func() error {
		adj, err := decodeAdj("IOFF", "IEDG", "SIGI", "IRUN", sigIn, irun, meta.maxInDeg)
		if err == nil {
			g.in = TableOf(adj)
		}
		return err
	})

	// Label buckets + the packed label-position table (checked in one
	// scan: lpos[v] must pack the bucket label with v's rank). This scan
	// also subsumes the NLBL range check: the buckets cover exactly n
	// members, each strictly ascending under a strictly ascending
	// range-checked label, and nodeLabels[v] must equal that label — so
	// every node appears in exactly one bucket and its label is in range.
	task(2, func() error {
		if boff[0] != 0 {
			return secErr("BOFF", "first offset %d, want 0", boff[0])
		}
		if boff[meta.buckets] != uint64(n) {
			return secErr("BOFF", "buckets cover %d nodes, graph has %d", boff[meta.buckets], n)
		}
		g.byLabel = make(map[LabelID][]NodeID, meta.buckets)
		for i, l := range bucketLabels {
			if uint32(l) >= uint32(meta.labels) {
				return secErr("BLBL", "bucket %d label %d out of range [0,%d)", i, l, meta.labels)
			}
			if i > 0 && bucketLabels[i-1] >= l {
				return secErr("BLBL", "bucket labels not strictly ascending at entry %d", i)
			}
			lo, hi := boff[i], boff[i+1]
			if lo >= hi || hi > uint64(n) {
				return secErr("BOFF", "bucket for label %d has bad bounds [%d, %d)", l, lo, hi)
			}
			members := bmem[lo:hi]
			for j, v := range members {
				if uint32(v) >= uint32(n) {
					return secErr("BMEM", "label %d member %d out of range [0,%d)", l, v, n)
				}
				if nodeLabels[v] != l {
					return secErr("BMEM", "node %d filed under label %d but carries label %d", v, l, nodeLabels[v])
				}
				if j > 0 && members[j-1] >= v {
					return secErr("BMEM", "label %d members not strictly ascending at position %d", l, j)
				}
				if lpos[v] != PackLabelPos(l, int32(j)) {
					return secErr("LPOS", "node %d packs %016x, bucket scan implies %016x", v, lpos[v], PackLabelPos(l, int32(j)))
				}
			}
			g.byLabel[l] = members
		}
		return nil
	})

	// Column contents: presence popcounts and the per-kind payload
	// invariants (absent slots zero, bool ⊆ present, ref ⇔ present).
	task(3, func() error {
		for a := range g.cols {
			c := &g.cols[a]
			pop := Bitset{words: c.present.flat}.Count()
			if n%64 != 0 && words > 0 && c.present.At(words-1)>>(uint(n%64)) != 0 {
				return secErr("PRES", "attribute %d: presence bitmap has bits beyond node %d", a, n-1)
			}
			if pop != c.count {
				return secErr("PRES", "attribute %d: presence bitmap has %d bits, count says %d", a, pop, c.count)
			}
			switch {
			case c.nums.n > 0:
				// Word-at-a-time: only absent slots are inspected, so a
				// dense column costs one popcounted word per 64 nodes.
				for w := 0; w < words; w++ {
					absent := ^c.present.At(w)
					if w == words-1 && n%64 != 0 {
						absent &= 1<<uint(n%64) - 1
					}
					for absent != 0 {
						i := w*64 + bits.TrailingZeros64(absent)
						if math.Float64bits(c.nums.At(i)) != 0 {
							return secErr("NUMS", "attribute %d: nonzero payload at absent node %d", a, i)
						}
						absent &= absent - 1
					}
				}
			case c.bools.n > 0:
				for w := 0; w < words; w++ {
					if c.bools.At(w)&^c.present.At(w) != 0 {
						return secErr("BOOL", "attribute %d: bool bitmap sets bits outside the presence bitmap", a)
					}
				}
			case c.refs != nil:
				for i := 0; i < n; i++ {
					r := c.refs[i]
					if (r != 0) != bitGet(&c.present, i) {
						return secErr("SREF", "attribute %d: ref/presence mismatch at node %d", a, i)
					}
					if r > uint32(meta.strCount) {
						return secErr("SREF", "attribute %d: node %d ref %d out of range [1,%d]", a, i, r, meta.strCount)
					}
				}
			}
		}
		return nil
	})

	// Sorted indexes. Bucket extents come straight from the BOFF view, not
	// g.byLabel (task 2 is building that concurrently); any file where the
	// two could disagree fails task 2, so whenever the open succeeds the
	// extents used here are the bucket contents.
	task(4, func() error {
		g.indexes = make(map[labelAttr]*permIndex, meta.mem.Indexes)
		prmOff := 0
		var prevKey labelAttr
		for i := 0; i < meta.mem.Indexes; i++ {
			key := labelAttr{LabelID(ikey[2*i]), AttrID(ikey[2*i+1])}
			if uint32(key.label) >= uint32(meta.labels) || uint32(key.attr) >= uint32(meta.attrs) {
				return secErr("IKEY", "index %d key (%d, %d) out of range", i, key.label, key.attr)
			}
			if i > 0 && (prevKey.label > key.label || (prevKey.label == key.label && prevKey.attr >= key.attr)) {
				return secErr("IKEY", "keys not strictly ascending at entry %d", i)
			}
			prevKey = key
			b, found := sort.Find(meta.buckets, func(j int) int { return int(key.label) - int(bucketLabels[j]) })
			if !found {
				return secErr("IKEY", "index %d label %d has no bucket", i, key.label)
			}
			lo, hi := boff[b], boff[b+1]
			if lo > hi || hi > uint64(n) {
				return secErr("BOFF", "bucket for label %d has bad bounds [%d, %d)", key.label, lo, hi)
			}
			size := int(hi - lo)
			if prmOff+size > len(iprm) {
				return secErr("IPRM", "index %d permutation truncated", i)
			}
			perm := iprm[prmOff : prmOff+size]
			prmOff += size
			c := &g.cols[key.attr]
			if c.kind == KindNumber && c.nums.n > 0 {
				if err := checkNumPerm(c, perm, nodeLabels, key, n); err != nil {
					return err
				}
			} else if c.kind == KindString && c.refs != nil {
				if err := checkStrPerm(c, g.strTab, perm, nodeLabels, key, n); err != nil {
					return err
				}
			} else {
				for j, v := range perm {
					if uint32(v) >= uint32(n) {
						return secErr("IPRM", "index (%d, %d) entry %d out of range [0,%d)", key.label, key.attr, v, n)
					}
					if nodeLabels[v] != key.label {
						return secErr("IPRM", "index (%d, %d) lists node %d of label %d", key.label, key.attr, v, nodeLabels[v])
					}
					if j > 0 {
						cmp := c.compare(perm[j-1], v)
						if cmp > 0 || (cmp == 0 && perm[j-1] >= v) {
							return secErr("IPRM", "index (%d, %d) not sorted at position %d", key.label, key.attr, j)
						}
					}
				}
			}
			g.indexes[key] = &permIndex{flat: perm}
		}
		if pad8(4*prmOff) != len(sections["IPRM"].payload) {
			return secErr("IPRM", "section holds %d entries, indexes need %d", len(iprm), prmOff)
		}
		return nil
	})

	// Wait for every task even on error: the goroutines hold reads into
	// data, which on the mapped path the caller will munmap the moment we
	// return an error.
	wg.Wait()
	for _, e := range taskErrs {
		if e != nil {
			return nil, e
		}
	}

	// Active domains: lazy. The closure decodes DOM2 on first use; if the
	// section is corrupt (possible on the mapped path, which skips CRC)
	// the domains are recomputed from the columns instead — never a panic,
	// never a wrong result.
	dom2 := sections["DOM2"].payload[:meta.dom2Len]
	g.domFill = func() {
		doms, err := decodeDomains(dom2, g.cols)
		if err != nil {
			doms = g.computeDomains()
		}
		g.domains = doms
	}

	g.attrNames = make([]string, len(g.attrTable))
	copy(g.attrNames, g.attrTable)
	sort.Strings(g.attrNames)
	g.backing = backing
	return g, nil
}

// checkNumPerm validates a numeric index permutation without per-pair
// comparator calls. Under the Value total order a sorted run over a
// numeric column is three phases — absent (Null) nodes, then NaN nodes,
// then finite numbers ascending — with node IDs strictly ascending inside
// every tie, so one pass with a phase counter enforces exactly what
// pairwise column.compare would.
func checkNumPerm(c *column, perm []NodeID, nodeLabels []LabelID, key labelAttr, n int) error {
	const (
		phAbsent = iota
		phNaN
		phNum
	)
	ph := phAbsent
	prevNum := 0.0
	for j, v := range perm {
		if uint32(v) >= uint32(n) {
			return secErr("IPRM", "index (%d, %d) entry %d out of range [0,%d)", key.label, key.attr, v, n)
		}
		if nodeLabels[v] != key.label {
			return secErr("IPRM", "index (%d, %d) lists node %d of label %d", key.label, key.attr, v, nodeLabels[v])
		}
		bad := false
		switch x := c.nums.At(int(v)); {
		case !bitGet(&c.present, int(v)):
			bad = ph != phAbsent || (j > 0 && perm[j-1] >= v)
		case math.IsNaN(x):
			bad = ph > phNaN || (ph == phNaN && perm[j-1] >= v)
			ph = phNaN
		default:
			bad = ph == phNum && (x < prevNum || (x == prevNum && perm[j-1] >= v))
			ph, prevNum = phNum, x
		}
		if bad {
			return secErr("IPRM", "index (%d, %d) not sorted at position %d", key.label, key.attr, j)
		}
	}
	return nil
}

// checkStrPerm validates a string index permutation. Refs are interned, so
// equal refs mean equal strings and the blob is only consulted when the
// adjacent refs differ; within ties node IDs must strictly ascend.
func checkStrPerm(c *column, tab *strTable, perm []NodeID, nodeLabels []LabelID, key labelAttr, n int) error {
	prevRef := uint32(0)
	for j, v := range perm {
		if uint32(v) >= uint32(n) {
			return secErr("IPRM", "index (%d, %d) entry %d out of range [0,%d)", key.label, key.attr, v, n)
		}
		if nodeLabels[v] != key.label {
			return secErr("IPRM", "index (%d, %d) lists node %d of label %d", key.label, key.attr, v, nodeLabels[v])
		}
		r := c.refs[v]
		// Ref range is task 3's job, but that task runs concurrently with
		// this one — bound the lookup here too so a corrupt file can't
		// push bytesAt out of the offset view before task 3 rejects it.
		if int64(r) >= int64(len(tab.offs)) {
			return secErr("SREF", "attribute %d: node %d ref %d out of range [1,%d]", key.attr, v, r, len(tab.offs)-1)
		}
		if j > 0 {
			cmp := 0
			switch {
			case prevRef == r:
			case prevRef == 0: // Null sorts before any string
				cmp = -1
			case r == 0:
				cmp = 1
			default:
				cmp = bytes.Compare(tab.bytesAt(int(prevRef)-1), tab.bytesAt(int(r)-1))
			}
			if cmp > 0 || (cmp == 0 && perm[j-1] >= v) {
				return secErr("IPRM", "index (%d, %d) not sorted at position %d", key.label, key.attr, j)
			}
		}
		prevRef = r
	}
	return nil
}

// badRunEdge reports which invariant an edge inside a label run broke;
// only reached when the fused hot-loop check in decodeAdj fails.
func badRunEdge(edgeTag string, v, l, j int, ed Edge, n int) error {
	switch {
	case int(ed.Label) != l:
		return secErr(edgeTag, "node %d edge %d label %d inside the label-%d run", v, j, ed.Label, l)
	case uint32(ed.To) >= uint32(n):
		return secErr(edgeTag, "node %d edge %d endpoint %d out of range [0,%d)", v, j, ed.To, n)
	default:
		return secErr(edgeTag, "node %d edges not sorted by (label, endpoint) at position %d", v, j)
	}
}

// decodeDomains decodes and validates the DOM2 section.
func decodeDomains(payload []byte, cols []column) ([][]Value, error) {
	cur := &varCursor{sec: "DOM2", buf: payload}
	doms := make([][]Value, len(cols))
	for a := range doms {
		l, err := cur.uvarint()
		if err != nil {
			return nil, err
		}
		if l > uint64(cur.remaining()) {
			return nil, cur.errf("attribute %d: domain count %d exceeds the %d bytes left", a, l, cur.remaining())
		}
		dom := make([]Value, l)
		for i := range dom {
			if dom[i], err = cur.valueInline(); err != nil {
				return nil, err
			}
			if i > 0 && dom[i-1].Compare(dom[i]) >= 0 {
				return nil, cur.errf("attribute %d: active domain not sorted and distinct at position %d", a, i)
			}
		}
		doms[a] = dom
	}
	if cur.remaining() != 0 {
		return nil, cur.errf("%d undecoded trailing bytes", cur.remaining())
	}
	return doms, nil
}

// ---------------------------------------------------------------------------
// Mapped open

// OpenSnapshotMapped opens a snapshot file and serves the graph
// directly from the page cache: the file is mmap'd read-only, every
// fixed-width section becomes a typed view over the mapping, and only the
// dictionaries plus any mixed-kind columns are decoded to the heap. The
// open performs the full structural validation of ReadSnapshot but skips
// the CRC pass (which would read the whole file and defeat O(open)
// restore); use the heap path when end-to-end integrity checking of
// untrusted files matters.
//
// The returned graph holds one reference to the mapping; Close releases
// it and Retain/Close brackets add readers (see the Registry). After the
// last Close every slice previously returned by the graph's accessors is
// invalid. Strings are exempt: they are copied to the heap on first use
// and stay valid forever.
//
// On platforms without mmap support the file is decoded to the heap
// instead (Mapped reports false).
func OpenSnapshotMapped(path string) (*Graph, error) {
	if !mmapSupported {
		return ReadSnapshotFile(path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("graph: opening snapshot %s: %w", path, err)
	}
	defer f.Close()
	data, err := mmapFile(f)
	if err != nil {
		return nil, fmt.Errorf("graph: mapping snapshot %s: %w", path, err)
	}
	g, err := openMappedBytes(data)
	if err != nil {
		_ = munmapBytes(data)
		return nil, fmt.Errorf("graph: snapshot %s: %w", path, err)
	}
	return g, nil
}

func openMappedBytes(data []byte) (*Graph, error) {
	sections, err := parseSnapSections(data)
	if err != nil {
		return nil, err
	}
	backing := &snapBacking{data: data, mapped: true, unmap: munmapBytes}
	backing.refs.Store(1)
	return decodeSnapshot(data, sections, backing, false)
}
