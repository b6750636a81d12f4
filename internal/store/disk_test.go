package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faults"
)

// refreshCRC recomputes a record's trailer so a deliberately edited
// record stays internally consistent (used to fabricate intact records
// of a foreign wire version).
func refreshCRC(rec []byte) {
	crc := crc32.Checksum(rec[:len(rec)-recTrailerLen], crcTable)
	binary.BigEndian.PutUint32(rec[len(rec)-recTrailerLen:], crc)
}

// recordFiles lists the record files under dir: a store's objects
// directory, or its quarantine (whose .reason sidecars it skips).
func recordFiles(dir string) []string {
	var paths []string
	filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() && strings.HasSuffix(path, ".rec") {
			paths = append(paths, path)
		}
		return nil
	})
	return paths
}

// onlyRecord returns the path of the store's single record file.
func onlyRecord(t *testing.T, d *Disk) string {
	t.Helper()
	paths := recordFiles(d.objectsDir())
	if len(paths) != 1 {
		t.Fatalf("want exactly 1 record on disk, found %d: %v", len(paths), paths)
	}
	return paths[0]
}

// TestDiskRoundTrip checks Put/Get/Delete against a real directory.
func TestDiskRoundTrip(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get("k"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("empty store Get = %v, want ErrNotFound", err)
	}
	val := []byte(`{"v":1,"kind":"run","data":{"x":0.5}}`)
	if err := d.Put("run|abc", val); err != nil {
		t.Fatal(err)
	}
	got, err := d.Get("run|abc")
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if n := len(recordFiles(d.objectsDir())); n != 1 {
		t.Fatalf("%d record files, want 1", n)
	}
	if err := d.Delete("run|abc"); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get("run|abc"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted key Get = %v, want ErrNotFound", err)
	}
	if err := d.Delete("never-existed"); err != nil {
		t.Fatalf("deleting a missing key must be a no-op, got %v", err)
	}
}

// TestDiskReopen checks records written by one store instance are
// served by a fresh instance over the same directory — the restart
// contract — and that stale staging files are swept on open.
func TestDiskReopen(t *testing.T) {
	dir := t.TempDir()
	d1, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d1.Put("profile|x", []byte("curves")); err != nil {
		t.Fatal(err)
	}
	d1.Close()

	// Simulate a crash mid-Put: a leftover staging file.
	stale := filepath.Join(dir, "tmp", "put-crashed")
	if err := os.WriteFile(stale, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := d2.Get("profile|x")
	if err != nil || string(got) != "curves" {
		t.Fatalf("record did not survive reopen: %q, %v", got, err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Error("stale staging file survived reopen")
	}
}

// TestDiskQuarantine checks every corruption shape — truncation,
// bit-flip, bad magic, key mismatch — is moved to quarantine with a
// reason sidecar and read as ErrQuarantined, an ErrNotFound, and that a
// recompute (Put) then heals the slot.
func TestDiskQuarantine(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(rec []byte) []byte
	}{
		{"truncated", func(rec []byte) []byte { return rec[:len(rec)/2] }},
		{"bit-flip", func(rec []byte) []byte {
			rec[recHeaderLen+3] ^= 0x40 // flip a key byte; CRC catches it
			return rec
		}},
		{"bad-magic", func(rec []byte) []byte {
			copy(rec[0:4], "XXXX")
			return rec
		}},
		{"short-file", func(rec []byte) []byte { return rec[:recHeaderLen-2] }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			d, err := OpenDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Put("run|k", []byte("payload")); err != nil {
				t.Fatal(err)
			}
			path := onlyRecord(t, d)
			rec, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(rec), 0o644); err != nil {
				t.Fatal(err)
			}

			if _, err := d.Get("run|k"); !errors.Is(err, ErrQuarantined) || !errors.Is(err, ErrNotFound) {
				t.Fatalf("corrupt record Get = %v, want ErrQuarantined, an ErrNotFound", err)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Error("corrupt record still present at its record path")
			}
			if n := len(recordFiles(d.quarantineDir())); n != 1 {
				t.Errorf("%d quarantined records, want 1", n)
			}
			reason, err := os.ReadFile(filepath.Join(d.quarantineDir(), filepath.Base(path)+".reason"))
			if err != nil || len(reason) == 0 {
				t.Errorf("missing .reason sidecar: %q, %v", reason, err)
			}

			// The slot self-heals: a recompute overwrites it cleanly.
			if err := d.Put("run|k", []byte("recomputed")); err != nil {
				t.Fatal(err)
			}
			got, err := d.Get("run|k")
			if err != nil || string(got) != "recomputed" {
				t.Fatalf("healed slot Get = %q, %v", got, err)
			}
		})
	}
}

// TestDiskKeyMismatchQuarantines checks a record served under the wrong
// key (a hash collision, or a tampered file moved between slots) is
// quarantined rather than returned.
func TestDiskKeyMismatchQuarantines(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("run|a", []byte("for-a")); err != nil {
		t.Fatal(err)
	}
	// Move a's record into b's slot: framing is intact (magic, CRC all
	// valid) but the embedded key disagrees with the lookup key.
	src := onlyRecord(t, d)
	_, dst := d.recordPath("run|b")
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Get("run|b"); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("key-mismatched record Get = %v, want ErrQuarantined", err)
	}
	if n := len(recordFiles(d.quarantineDir())); n != 1 {
		t.Errorf("%d quarantined records, want 1", n)
	}
}

// TestDiskVersionMismatchIsMissNotCorruption checks a record of a
// different wire version reads as a plain miss: no quarantine (the
// record is intact, just unreadable by this build) and the recompute
// overwrites it.
func TestDiskVersionMismatchIsMissNotCorruption(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("run|k", []byte("old")); err != nil {
		t.Fatal(err)
	}
	path := onlyRecord(t, d)
	rec, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Re-frame with a future version and a recomputed CRC, so the record
	// is internally consistent — only the version differs.
	rec[4], rec[5] = 0x00, 0x63 // version 99
	refreshCRC(rec)
	if err := os.WriteFile(path, rec, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := d.Get("run|k"); !errors.Is(err, ErrNotFound) || errors.Is(err, ErrQuarantined) {
		t.Fatalf("future-version record Get = %v, want ErrNotFound and not ErrQuarantined", err)
	}
	if n := len(recordFiles(d.quarantineDir())); n != 0 {
		t.Errorf("version mismatch must not quarantine, found %d quarantined records", n)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("version-mismatched record must stay in place until overwritten: %v", err)
	}
	if err := d.Put("run|k", []byte("new")); err != nil {
		t.Fatal(err)
	}
	if got, err := d.Get("run|k"); err != nil || string(got) != "new" {
		t.Fatalf("overwritten slot Get = %q, %v", got, err)
	}
}

// TestDiskTornWriteFaultQuarantinesOnRead checks the injected torn
// write end to end: a Truncate fault at store.put writes a half record
// reporting success, and the next Get detects, quarantines, and misses.
func TestDiskTornWriteFaultQuarantinesOnRead(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	restore := faults.Activate(faults.New(7).TruncateAt(faults.SiteStorePut, 0))
	err = d.Put("run|torn", []byte("this payload will be cut in half"))
	restore()
	if err != nil {
		t.Fatalf("torn write must report success, got %v", err)
	}
	if n := len(recordFiles(d.objectsDir())); n != 1 {
		t.Fatalf("torn record not on disk: %d record files", n)
	}
	if _, err := d.Get("run|torn"); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("torn record Get = %v, want ErrQuarantined", err)
	}
	if n := len(recordFiles(d.quarantineDir())); n != 1 {
		t.Errorf("%d quarantined records, want 1", n)
	}
	// Untorn retry heals the slot.
	if err := d.Put("run|torn", []byte("whole")); err != nil {
		t.Fatal(err)
	}
	if got, err := d.Get("run|torn"); err != nil || string(got) != "whole" {
		t.Fatalf("healed Get = %q, %v", got, err)
	}
}

// TestDiskInjectedErrors checks Error faults at both store sites are
// returned, not swallowed.
func TestDiskInjectedErrors(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	restore := faults.Activate(faults.New(7).
		ErrorAt(faults.SiteStorePut, 0).
		ErrorAt(faults.SiteStoreGet, 0))
	defer restore()

	var ie *faults.InjectedError
	if err := d.Put("k", []byte("v")); !errors.As(err, &ie) {
		t.Fatalf("Put under an error fault = %v, want InjectedError", err)
	}
	if _, err := d.Get("k"); !errors.As(err, &ie) {
		t.Fatalf("Get under an error fault = %v, want InjectedError", err)
	}
}

// TestWriteFileAtomicDirSyncFault makes the parent directory's fsync
// fail after the rename: WriteFileAtomic and Disk.Put must report the
// error, since the renamed file may not survive a crash.
func TestWriteFileAtomicDirSyncFault(t *testing.T) {
	errSync := errors.New("injected directory fsync failure")
	orig := syncDir
	syncDir = func(string) error { return errSync }
	t.Cleanup(func() { syncDir = orig })

	root := t.TempDir()
	err := WriteFileAtomic(root, filepath.Join(root, "sub", "file"), []byte("data"))
	if !errors.Is(err, errSync) || !strings.Contains(err.Error(), "store: syncing directory") {
		t.Fatalf("WriteFileAtomic with a failing directory fsync = %v, want the wrapped sync error", err)
	}

	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put("k", []byte("v")); !errors.Is(err, errSync) {
		t.Fatalf("Put with a failing directory fsync = %v, want the sync error", err)
	}
}

// TestDiskFanOut checks the objects layout: records land under
// two-hex-character fan-out directories.
func TestDiskFanOut(t *testing.T) {
	d, err := OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dir, path := d.recordPath("some|key")
	base := filepath.Base(dir)
	if len(base) != 2 {
		t.Errorf("fan-out dir %q, want two hex chars", base)
	}
	if !strings.HasSuffix(path, ".rec") {
		t.Errorf("record path %q, want .rec suffix", path)
	}
	if err := d.Put("some|key", []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("record not at its computed path: %v", err)
	}
}
