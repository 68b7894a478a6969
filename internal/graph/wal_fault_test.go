package graph

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

// faultFile is a delta log on a failing disk: its next write lets land(n)
// of its n bytes through and fails with writeErr, its next fsync fails with
// syncErr, and every truncate fails with truncErr — each when set.
type faultFile struct {
	*os.File
	land     func(n int) int
	writeErr error
	syncErr  error
	truncErr error
}

func (f *faultFile) Write(p []byte) (int, error) {
	if f.writeErr == nil {
		return f.File.Write(p)
	}
	n, _ := f.File.Write(p[:f.land(len(p))])
	err := f.writeErr
	f.writeErr = nil
	return n, err
}

func (f *faultFile) Sync() error {
	if err := f.syncErr; err != nil {
		f.syncErr = nil
		return err
	}
	return f.File.Sync()
}

func (f *faultFile) Truncate(size int64) error {
	if f.truncErr != nil {
		return f.truncErr
	}
	return f.File.Truncate(size)
}

// faultyWAL opens a log at a fresh path, appends first to it and puts fault
// under the writer.
func faultyWAL(t *testing.T, first []Mutation, fault *faultFile) (*WALWriter, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.fdelta")
	w, err := OpenWAL(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	if err := w.Append(first); err != nil {
		t.Fatal(err)
	}
	fault.File = w.f.(*os.File)
	w.f = fault
	return w, path
}

// checkReplay requires the log at path to replay exactly want, with nothing
// torn after it, and to be as long as the writer says.
func checkReplay(t *testing.T, name string, w *WALWriter, path string, want ...[]Mutation) {
	t.Helper()
	rep, err := ReplayWAL(path, false)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if rep.Truncated || len(rep.Batches) != len(want) {
		t.Fatalf("%s: replayed %d batches (truncated=%v), want %d", name, len(rep.Batches), rep.Truncated, len(want))
	}
	for i := range want {
		if !mutationsEqual(rep.Batches[i], want[i]) {
			t.Errorf("%s: batch %d replays as %+v, want %+v", name, i, rep.Batches[i], want[i])
		}
	}
	if st, err := os.Stat(path); err != nil || st.Size() != w.Size() {
		t.Errorf("%s: the file holds %v bytes (err %v), Size() %d", name, st.Size(), err, w.Size())
	}
}

// TestWALRefusedAppendLeavesNoBytes: an append refused by its write or its
// fsync leaves nothing in the log, so the next good append replays and the
// refused batch never does.
func TestWALRefusedAppendLeavesNoBytes(t *testing.T) {
	first, refused, good := sampleBatch(), []Mutation{{Op: MutAddNode, Label: "Refused"}}, []Mutation{{Op: MutAddNode, Label: "Org"}}
	for _, c := range []struct {
		name  string
		fault faultFile
		want  error
	}{
		{"EIO from fsync", faultFile{syncErr: syscall.EIO}, syscall.EIO},
		{"ENOSPC mid-frame", faultFile{land: func(n int) int { return n / 2 }, writeErr: syscall.ENOSPC}, syscall.ENOSPC},
		{"short write", faultFile{land: func(n int) int { return n - 1 }, writeErr: io.ErrShortWrite}, io.ErrShortWrite},
	} {
		w, path := faultyWAL(t, first, &c.fault)
		before := w.Size()
		if err := w.Append(refused); !errors.Is(err, c.want) {
			t.Fatalf("%s: refused append returned %v, want %v", c.name, err, c.want)
		}
		if w.Size() != before {
			t.Errorf("%s: Size moved %d -> %d on a refused append", c.name, before, w.Size())
		}
		if err := w.Append(good); err != nil {
			t.Fatalf("%s: the append after a refused one: %v", c.name, err)
		}
		checkReplay(t, c.name, w, path, first, good)
	}
}

// TestWALUncutFrameRefusesAppends: when the refused frame cannot be cut off
// either, every later append is refused with that error (appending after the
// frame would replay it, or lose everything behind it), until a reset
// replaces the log.
func TestWALUncutFrameRefusesAppends(t *testing.T) {
	first, good := sampleBatch(), []Mutation{{Op: MutAddNode, Label: "Org"}}
	full := errors.New("truncate refused")
	w, path := faultyWAL(t, first, &faultFile{syncErr: syscall.EIO, truncErr: full})
	if err := w.Append([]Mutation{{Op: MutAddNode, Label: "Refused"}}); !errors.Is(err, syscall.EIO) {
		t.Fatalf("refused append returned %v", err)
	}
	for i := 0; i < 2; i++ {
		if err := w.Append(good); !errors.Is(err, full) {
			t.Fatalf("append %d after an uncut frame returned %v, want the truncate's error", i, err)
		}
	}
	if err := w.Reset(first); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(good); err != nil {
		t.Fatalf("append after the reset: %v", err)
	}
	checkReplay(t, "after reset", w, path, first, good)
}
