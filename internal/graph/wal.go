package graph

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
)

// The write-ahead delta log (".fdelta"): a crash-consistent record of
// every mutation batch applied to a graph since its last snapshot.
//
// File layout:
//
//	8 bytes  magic "FDELTA1\n"
//	8 bytes  u64 LE epoch — identifies the base snapshot the log extends
//	frames   [u32 LE payload length][u32 LE CRC-32 (IEEE) of payload][payload]
//
// Each frame holds exactly one batch, encoded as the JSON mutation array
// also accepted by the HTTP mutate endpoint, and is fsync'd before the
// append returns — restart recovers to the last acknowledged batch.
// Replay verifies length and CRC per frame; the first bad frame (torn
// write, flipped bits, garbage tail) ends the log, and the repair mode
// truncates the file back to the last good frame so the next append
// starts clean.
//
// The epoch makes checkpoints crash-atomic. A checkpoint first writes the
// resurrected snapshot under an epoch-qualified name, then atomically
// replaces the log (tmp + rename, see ResetEpoch) with one carrying the
// new epoch and just the tombstone batch of the snapshot's resurrected
// image (empty when the graph has no tombstones). The log rename is the
// commit point: on restore, the epoch in the log header names the one
// snapshot the batches are relative to, so a crash on either side of the
// rename leaves a consistent (snapshot, log) pair plus an orphan snapshot
// file that restore sweeps away.

// WALMagic is the delta-log file magic.
const WALMagic = "FDELTA1\n"

// walHeaderSize is the fixed prefix before the first frame: the magic
// plus the little-endian epoch.
const walHeaderSize = len(WALMagic) + 8

// walMaxPayload bounds a frame's declared payload length; a corrupt
// header can therefore never force a giant allocation.
const walMaxPayload = 1 << 28

// --------------------------------------------------------------------------
// Mutation JSON codec (shared by the WAL frames and the HTTP endpoint)

// jsonMut is the wire form of one Mutation. Numeric node fields are
// pointers so a missing field is distinguishable from node 0.
type jsonMut struct {
	Op    string               `json:"op"`
	Node  *int64               `json:"node,omitempty"`
	From  *int64               `json:"from,omitempty"`
	To    *int64               `json:"to,omitempty"`
	Label string               `json:"label,omitempty"`
	Attr  string               `json:"attr,omitempty"`
	Value *jsonValue           `json:"value,omitempty"`
	Attrs map[string]jsonValue `json:"attrs,omitempty"`
}

// jsonValue carries one attribute Value. The compact form is a JSON
// string in the ParseValue syntax ("30", "true", "alice"); values that
// syntax cannot round-trip exactly (the string "12", the string "true",
// "null", the empty string, ...) use the typed object form
// {"kind":"string","value":"12"}. MarshalJSON picks the shortest faithful
// form automatically.
type jsonValue struct{ v Value }

func (j jsonValue) MarshalJSON() ([]byte, error) {
	s := j.v.String()
	if rt := ParseValue(s); rt.Kind() == j.v.Kind() && rt.Equal(j.v) {
		return json.Marshal(s)
	}
	return json.Marshal(struct {
		Kind  string `json:"kind"`
		Value string `json:"value"`
	}{j.v.Kind().String(), s})
}

func (j *jsonValue) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		j.v = ParseValue(s)
		return nil
	}
	var typed struct {
		Kind  string `json:"kind"`
		Value string `json:"value"`
	}
	if err := json.Unmarshal(data, &typed); err != nil {
		return fmt.Errorf("graph: attribute value must be a string or {kind, value}: %w", err)
	}
	switch typed.Kind {
	case "null":
		j.v = Null
	case "bool":
		switch typed.Value {
		case "true":
			j.v = Bool(true)
		case "false":
			j.v = Bool(false)
		default:
			return fmt.Errorf("graph: bad bool value %q", typed.Value)
		}
	case "number":
		f, err := parseFloatValue(typed.Value)
		if err != nil {
			return fmt.Errorf("graph: bad number value %q", typed.Value)
		}
		j.v = Num(f)
	case "string":
		j.v = Str(typed.Value)
	default:
		return fmt.Errorf("graph: unknown value kind %q", typed.Kind)
	}
	return nil
}

// EncodeMutations renders a batch in the JSON wire form (a JSON array,
// one object per mutation). The encoding is deterministic — attrs maps
// marshal with sorted keys — and faithful: DecodeMutations returns a
// batch with identical semantics, including attribute value kinds.
func EncodeMutations(ops []Mutation) ([]byte, error) {
	wire := make([]jsonMut, len(ops))
	for i, m := range ops {
		jm := jsonMut{Op: m.Op.String()}
		switch m.Op {
		case MutAddNode:
			jm.Label = m.Label
			if len(m.Attrs) > 0 {
				jm.Attrs = make(map[string]jsonValue, len(m.Attrs))
				for _, kv := range m.Attrs {
					jm.Attrs[kv.Name] = jsonValue{kv.Value}
				}
			}
		case MutRemoveNode:
			n := int64(m.Node)
			jm.Node = &n
		case MutAddEdge, MutRemoveEdge:
			f, t := int64(m.From), int64(m.To)
			jm.From, jm.To, jm.Label = &f, &t, m.Label
		case MutSetAttr:
			n := int64(m.Node)
			jm.Node, jm.Attr = &n, m.Attr
			if m.Value.Kind() != KindNull {
				jm.Value = &jsonValue{m.Value}
			}
		default:
			return nil, fmt.Errorf("graph: op %d: unknown mutation op %d", i, m.Op)
		}
		wire[i] = jm
	}
	return json.Marshal(wire)
}

// DecodeMutations parses the JSON wire form back into a batch. Structural
// problems (unknown op, missing fields, out-of-range IDs) error here;
// semantic validity against a particular graph is ApplyBatch's job.
func DecodeMutations(data []byte) ([]Mutation, error) {
	var wire []jsonMut
	if err := json.Unmarshal(data, &wire); err != nil {
		return nil, fmt.Errorf("graph: decoding mutation batch: %w", err)
	}
	ops := make([]Mutation, len(wire))
	node := func(i int, what string, p *int64) (NodeID, error) {
		if p == nil {
			return 0, fmt.Errorf("graph: op %d (%s): missing %q field", i, wire[i].Op, what)
		}
		if *p < 0 || *p > 1<<31-1 {
			return 0, fmt.Errorf("graph: op %d (%s): %s %d out of range", i, wire[i].Op, what, *p)
		}
		return NodeID(*p), nil
	}
	for i, jm := range wire {
		m := Mutation{}
		var err error
		switch jm.Op {
		case "addNode":
			m.Op, m.Label = MutAddNode, jm.Label
			if len(jm.Attrs) > 0 {
				names := make([]string, 0, len(jm.Attrs))
				for a := range jm.Attrs {
					names = append(names, a)
				}
				sort.Strings(names)
				m.Attrs = make([]AttrPair, 0, len(names))
				for _, a := range names {
					m.Attrs = append(m.Attrs, AttrPair{Name: a, Value: jm.Attrs[a].v})
				}
			}
		case "removeNode":
			m.Op = MutRemoveNode
			if m.Node, err = node(i, "node", jm.Node); err != nil {
				return nil, err
			}
		case "addEdge", "removeEdge":
			m.Op, m.Label = MutAddEdge, jm.Label
			if jm.Op == "removeEdge" {
				m.Op = MutRemoveEdge
			}
			if m.From, err = node(i, "from", jm.From); err != nil {
				return nil, err
			}
			if m.To, err = node(i, "to", jm.To); err != nil {
				return nil, err
			}
		case "setAttr":
			m.Op, m.Attr = MutSetAttr, jm.Attr
			if m.Node, err = node(i, "node", jm.Node); err != nil {
				return nil, err
			}
			if m.Attr == "" {
				return nil, fmt.Errorf("graph: op %d (setAttr): missing \"attr\" field", i)
			}
			if jm.Value != nil {
				m.Value = jm.Value.v
			}
		default:
			return nil, fmt.Errorf("graph: op %d: unknown mutation op %q", i, jm.Op)
		}
		ops[i] = m
	}
	return ops, nil
}

// --------------------------------------------------------------------------
// Log writer

// WALWriter appends CRC-framed, fsync'd mutation batches to a delta log.
// Not goroutine-safe; callers serialize (the registry holds its per-graph
// lock across Apply + Append).
type WALWriter struct {
	f     walFile
	path  string
	size  int64
	epoch uint64
	// broken refuses every append once a refused frame could not be cut off.
	broken error
}

// walFile is what a WALWriter calls on its log: an *os.File.
type walFile interface {
	io.WriteSeeker
	io.WriterAt
	io.Closer
	Truncate(size int64) error
	Sync() error
}

// OpenWAL opens (or creates) the delta log at path for appending. A new
// log starts at epoch 0. An existing file must start with the magic; its
// tail is NOT validated here — recover first with ReplayWAL(path, true),
// which truncates any torn tail, then open. A file torn inside the header
// itself (created but never fully written — it can hold no batches) is
// rewritten as a fresh epoch-0 log.
func OpenWAL(path string) (*WALWriter, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	w := &WALWriter{f: f, path: path, size: st.Size()}
	if st.Size() >= int64(len(WALMagic)) {
		var magic [len(WALMagic)]byte
		if _, err := f.ReadAt(magic[:], 0); err != nil || string(magic[:]) != WALMagic {
			f.Close()
			return nil, fmt.Errorf("graph: %s is not a delta log (bad magic)", path)
		}
	}
	if st.Size() < int64(walHeaderSize) {
		if err := w.writeHeader(0); err != nil {
			f.Close()
			return nil, err
		}
		return w, nil
	}
	var eb [8]byte
	if _, err := f.ReadAt(eb[:], int64(len(WALMagic))); err != nil {
		f.Close()
		return nil, err
	}
	w.epoch = binary.LittleEndian.Uint64(eb[:])
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, err
	}
	return w, nil
}

func (w *WALWriter) writeHeader(epoch uint64) error {
	hdr := walHeader(epoch)
	if _, err := w.f.WriteAt(hdr, 0); err != nil {
		return err
	}
	if err := w.f.Truncate(int64(walHeaderSize)); err != nil {
		return err
	}
	if _, err := w.f.Seek(int64(walHeaderSize), io.SeekStart); err != nil {
		return err
	}
	w.size = int64(walHeaderSize)
	w.epoch = epoch
	return w.f.Sync()
}

func walHeader(epoch uint64) []byte {
	hdr := make([]byte, walHeaderSize)
	copy(hdr, WALMagic)
	binary.LittleEndian.PutUint64(hdr[len(WALMagic):], epoch)
	return hdr
}

// Append encodes one batch as a frame and fsyncs. On success the batch is
// durable: a crash any time after Append returns replays it. A refused batch
// leaves no byte in the log: a failed write or fsync cuts the file back to
// Size, and a writer that cannot cut it refuses every later append.
func (w *WALWriter) Append(ops []Mutation) error {
	if w.broken != nil {
		return w.broken
	}
	payload, err := EncodeMutations(ops)
	if err != nil {
		return err
	}
	frame := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[8:], payload)
	if _, err = w.f.Write(frame); err == nil {
		err = w.f.Sync()
	}
	if err != nil {
		return w.cut(err)
	}
	w.size += int64(len(frame))
	return nil
}

// cut drops what a refused append left past Size and returns err; when that
// fails the writer is broken: replay could apply the refused batch, or stop
// at its torn frame before every batch appended after it.
func (w *WALWriter) cut(err error) error {
	cerr := w.f.Truncate(w.size)
	if cerr == nil {
		_, cerr = w.f.Seek(w.size, io.SeekStart)
	}
	if cerr == nil {
		cerr = w.f.Sync()
	}
	if cerr != nil {
		w.broken = fmt.Errorf("graph: delta log %s keeps a refused frame: %w", w.path, cerr)
	}
	return err
}

// Reset restarts the log at its current epoch with just the given batches
// (empty batches are dropped). See ResetEpoch.
func (w *WALWriter) Reset(batches ...[]Mutation) error {
	return w.ResetEpoch(w.epoch, batches...)
}

// ResetEpoch atomically replaces the log with one carrying the given
// epoch and batches: the new content is written to a sibling ".tmp" file,
// fsync'd, and renamed over the log, so a crash at any point leaves
// either the complete old log or the complete new one — never a torn
// truncation. This is the checkpoint commit point: the caller writes the
// epoch-qualified snapshot first, then ResetEpoch(epoch, tombstoneBatch)
// switches restores over to it.
func (w *WALWriter) ResetEpoch(epoch uint64, batches ...[]Mutation) error {
	tmp := w.path + ".tmp"
	nf, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	nw := &WALWriter{f: nf, path: w.path, epoch: epoch}
	fail := func(err error) error {
		nf.Close()
		os.Remove(tmp)
		return err
	}
	if err := nw.writeHeader(epoch); err != nil {
		return fail(err)
	}
	for _, b := range batches {
		if len(b) == 0 {
			continue
		}
		if err := nw.Append(b); err != nil {
			return fail(err)
		}
	}
	if err := os.Rename(tmp, w.path); err != nil {
		return fail(err)
	}
	syncDir(w.path)
	// The renamed fd stays valid; retire the old one and adopt the new.
	w.f.Close()
	w.f, w.size, w.epoch, w.broken = nf, nw.size, epoch, nil
	return nil
}

// syncDir best-effort fsyncs the directory containing path, making a
// preceding rename durable.
func syncDir(path string) {
	if d, err := os.Open(filepath.Dir(path)); err == nil {
		d.Sync()
		d.Close()
	}
}

// Size returns the log's current byte length.
func (w *WALWriter) Size() int64 { return w.size }

// Epoch returns the log's epoch — the identifier of the base snapshot its
// batches extend (0 for a log opened fresh against the original upload).
func (w *WALWriter) Epoch() uint64 { return w.epoch }

// Close closes the underlying file.
func (w *WALWriter) Close() error { return w.f.Close() }

// --------------------------------------------------------------------------
// Replay

// WALReplay is the result of reading a delta log back.
type WALReplay struct {
	// Epoch is the base-snapshot identifier from the log header.
	Epoch uint64
	// Batches holds every intact batch in append order.
	Batches [][]Mutation
	// Truncated reports that the log ended in a torn or corrupt frame;
	// TruncatedBytes is how many bytes past the last good frame were
	// dropped (or would be, without repair).
	Truncated      bool
	TruncatedBytes int64
}

// ReplayWAL reads the delta log at path, verifying each frame's length
// and CRC and decoding its batch. The first bad frame ends the replay:
// everything before it is returned, and with repair set the file is
// truncated back to the last good frame so subsequent appends start
// clean. A missing file is an error (callers decide whether that's an
// orphan or a fresh graph).
func ReplayWAL(path string, repair bool) (*WALReplay, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &WALReplay{}
	if len(data) < len(WALMagic) || string(data[:len(WALMagic)]) != WALMagic {
		return nil, fmt.Errorf("graph: %s is not a delta log (bad magic)", path)
	}
	if len(data) < walHeaderSize {
		// Torn inside the header: the log was created but never completed
		// a single append, so there is nothing to lose by starting over.
		rep.Truncated = true
		rep.TruncatedBytes = int64(len(data) - len(WALMagic))
		if repair {
			if err := os.WriteFile(path, walHeader(0), 0o644); err != nil {
				return rep, fmt.Errorf("graph: rewriting torn delta-log header: %w", err)
			}
		}
		return rep, nil
	}
	rep.Epoch = binary.LittleEndian.Uint64(data[len(WALMagic):walHeaderSize])
	off := int64(walHeaderSize)
	good := off
	for int64(len(data))-off >= 8 {
		n := int64(binary.LittleEndian.Uint32(data[off : off+4]))
		crc := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n == 0 || n > walMaxPayload || off+8+n > int64(len(data)) {
			break
		}
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != crc {
			break
		}
		ops, err := DecodeMutations(payload)
		if err != nil {
			break
		}
		off += 8 + n
		good = off
		rep.Batches = append(rep.Batches, ops)
	}
	if good < int64(len(data)) {
		rep.Truncated = true
		rep.TruncatedBytes = int64(len(data)) - good
		if repair {
			if err := os.Truncate(path, good); err != nil {
				return rep, fmt.Errorf("graph: truncating torn delta-log tail: %w", err)
			}
		}
	}
	return rep, nil
}

// parseFloatValue parses the WAL's number rendering (Value.String of a
// KindNumber: decimal integers, 'g'-format floats, NaN, ±Inf).
func parseFloatValue(s string) (float64, error) { return strconv.ParseFloat(s, 64) }
