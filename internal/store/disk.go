package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"

	"repro/internal/faults"
)

// Disk is the crash-safe on-disk content-addressed store. Each record
// is one file in a fan-out directory keyed by the hash of the record's
// key:
//
//	<root>/objects/<hh>/<hash>.rec   the records (hh = hash[:2])
//	<root>/tmp/                      staging for atomic writes
//	<root>/quarantine/               corrupt records, moved aside
//
// Writes are atomic and durable: the framed record is written to a
// temp file on the same volume, fsynced, renamed into place, and the
// parent directory is fsynced — a crash at any point leaves either the
// old record or the new one, never a torn file at the final path. Every
// record is framed with a magic/version header, its full key, and a
// CRC-32C trailer verified on read; a record that fails verification
// (truncated, bit-flipped, or belonging to a different key) is moved to
// the quarantine sidecar and reported as ErrQuarantined, an ErrNotFound,
// so the caller transparently recomputes — corruption is never served
// and never fatal.
type Disk struct {
	root string
}

// Record framing constants. diskMagic identifies a compmem result
// record; diskVersion is the wire-format version (bumping it orphans
// existing records, which then read as misses — never as corruption).
const (
	diskVersion   = 1
	recHeaderLen  = 12 // magic(4) + version(2) + keyLen(2) + payloadLen(4)
	recTrailerLen = 4  // CRC-32C over header+key+payload
)

const (
	maxKeyLen   = 1<<16 - 1
	maxValueLen = 1<<31 - 1
)

var (
	diskMagic = [4]byte{'C', 'M', 'R', 'S'} // CompMem Result Store
	crcTable  = crc32.MakeTable(crc32.Castagnoli)
)

// OpenDisk opens (creating if needed) a disk store rooted at dir.
// Leftover staging files from a previous crash are removed.
func OpenDisk(dir string) (*Disk, error) {
	d := &Disk{root: dir}
	for _, sub := range []string{d.objectsDir(), d.tmpDir(), d.quarantineDir()} {
		if err := os.MkdirAll(sub, 0o755); err != nil {
			return nil, fmt.Errorf("store: opening %s: %w", dir, err)
		}
	}
	// A crash mid-Put can leave staging files; they were never visible
	// at a record path, so dropping them is always safe.
	if stale, err := os.ReadDir(d.tmpDir()); err == nil {
		for _, e := range stale {
			os.Remove(filepath.Join(d.tmpDir(), e.Name()))
		}
	}
	return d, nil
}

func (d *Disk) objectsDir() string    { return filepath.Join(d.root, "objects") }
func (d *Disk) tmpDir() string        { return filepath.Join(d.root, "tmp") }
func (d *Disk) quarantineDir() string { return filepath.Join(d.root, "quarantine") }

// recordPath fans records out by the hex SHA-256 of the key, so the
// layout is uniform regardless of key shape and no directory grows
// unboundedly.
func (d *Disk) recordPath(key string) (dir, path string) {
	sum := sha256.Sum256([]byte(key))
	name := hex.EncodeToString(sum[:])
	dir = filepath.Join(d.objectsDir(), name[:2])
	return dir, filepath.Join(dir, name[2:]+".rec")
}

// frame builds the on-disk record: header, key, payload, CRC trailer.
func frame(key string, val []byte) ([]byte, error) {
	if len(key) > maxKeyLen {
		return nil, fmt.Errorf("store: key of %d bytes exceeds %d", len(key), maxKeyLen)
	}
	if len(val) > maxValueLen {
		return nil, fmt.Errorf("store: value of %d bytes exceeds %d", len(val), maxValueLen)
	}
	rec := make([]byte, recHeaderLen+len(key)+len(val)+recTrailerLen)
	copy(rec[0:4], diskMagic[:])
	binary.BigEndian.PutUint16(rec[4:6], diskVersion)
	binary.BigEndian.PutUint16(rec[6:8], uint16(len(key)))
	binary.BigEndian.PutUint32(rec[8:12], uint32(len(val)))
	copy(rec[recHeaderLen:], key)
	copy(rec[recHeaderLen+len(key):], val)
	crc := crc32.Checksum(rec[:len(rec)-recTrailerLen], crcTable)
	binary.BigEndian.PutUint32(rec[len(rec)-recTrailerLen:], crc)
	return rec, nil
}

// parse verifies a framed record against the key it was looked up
// under and returns its payload. Any inconsistency — short file, bad
// magic, impossible lengths, key mismatch, checksum failure — is
// corruption (a version mismatch alone is not: it reads as a miss, see
// Get). The payload shares rec's backing array.
func parse(rec []byte, key string) (payload []byte, version uint16, err error) {
	if len(rec) < recHeaderLen+recTrailerLen {
		return nil, 0, fmt.Errorf("truncated record: %d bytes", len(rec))
	}
	if [4]byte(rec[0:4]) != diskMagic {
		return nil, 0, fmt.Errorf("bad magic %q", rec[0:4])
	}
	version = binary.BigEndian.Uint16(rec[4:6])
	keyLen := int(binary.BigEndian.Uint16(rec[6:8]))
	payLen := int(binary.BigEndian.Uint32(rec[8:12]))
	if recHeaderLen+keyLen+payLen+recTrailerLen != len(rec) {
		return nil, version, fmt.Errorf("length mismatch: header says %d+%d in a %d-byte file", keyLen, payLen, len(rec))
	}
	body := rec[:len(rec)-recTrailerLen]
	want := binary.BigEndian.Uint32(rec[len(rec)-recTrailerLen:])
	if got := crc32.Checksum(body, crcTable); got != want {
		return nil, version, fmt.Errorf("checksum mismatch: %08x != %08x", got, want)
	}
	if recKey := string(rec[recHeaderLen : recHeaderLen+keyLen]); recKey != key {
		return nil, version, fmt.Errorf("key mismatch: record holds %q", recKey)
	}
	return rec[recHeaderLen+keyLen : recHeaderLen+keyLen+payLen], version, nil
}

// Get implements Store. Corrupt records are quarantined and read as
// ErrQuarantined; records of an unknown wire version read as ErrNotFound
// without quarantine (they are intact, just unreadable by this build —
// the recompute overwrites them).
func (d *Disk) Get(key string) ([]byte, error) {
	if err := faults.Point(faults.SiteStoreGet); err != nil {
		return nil, err
	}
	_, path := d.recordPath(key)
	rec, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, fmt.Errorf("store: reading %s: %w", path, err)
	}
	payload, version, perr := parse(rec, key)
	if perr != nil {
		d.quarantine(path, perr)
		return nil, ErrQuarantined
	}
	if version != diskVersion {
		return nil, ErrNotFound
	}
	return payload, nil
}

// quarantine moves a corrupt record into the sidecar directory (never
// deleting evidence) and drops a .reason file beside it; if even the
// move fails the record is removed so it cannot be re-read, and if that
// fails too the next Put's rename will overwrite it. Never fatal.
func (d *Disk) quarantine(path string, cause error) {
	dest := filepath.Join(d.quarantineDir(), filepath.Base(path))
	if err := os.Rename(path, dest); err != nil {
		os.Remove(path)
		return
	}
	os.WriteFile(dest+".reason", []byte(cause.Error()+"\n"), 0o644)
}

// Put implements Store: an atomic, durable write (temp file + fsync +
// rename + parent-directory fsync).
func (d *Disk) Put(key string, val []byte) error {
	rec, err := frame(key, val)
	if err != nil {
		return err
	}
	if ferr := faults.Point(faults.SiteStorePut); ferr != nil {
		if !faults.IsTruncate(ferr) {
			return ferr
		}
		// Injected torn write: frame a record cut mid-payload and report
		// success — the shape a crash between rename and data flush
		// leaves on non-atomic filesystems, which Get must quarantine.
		rec = rec[:recHeaderLen+(len(rec)-recHeaderLen)/2]
	}
	_, path := d.recordPath(key)
	return WriteFileAtomic(d.tmpDir(), path, rec)
}

// WriteFileAtomic durably replaces the file at path with data: it
// stages the bytes in a temp file under tmpDir (which must be on path's
// volume), fsyncs it, renames it over path (creating path's directory
// if needed) and fsyncs that directory, so a crash at any point leaves
// either the old file or the new one, and a write that returned nil
// survives a power loss. Every step's error is returned, the
// directory's fsync included.
func WriteFileAtomic(tmpDir, path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	f, err := os.CreateTemp(tmpDir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: staging: %w", err)
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := f.Write(data); err != nil {
		return cleanup(fmt.Errorf("store: writing %s: %w", tmp, err))
	}
	if err := f.Sync(); err != nil {
		return cleanup(fmt.Errorf("store: syncing %s: %w", tmp, err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing %s: %w", path, err)
	}
	// fsync the parent so the rename itself survives a crash.
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("store: syncing directory %s: %w", dir, err)
	}
	return nil
}

// syncDir fsyncs a directory, making the entries renamed into it
// durable. It is a variable so tests can make it fail.
var syncDir = func(dir string) error {
	dh, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = dh.Sync()
	if cerr := dh.Close(); err == nil {
		err = cerr
	}
	return err
}

// Delete implements Store.
func (d *Disk) Delete(key string) error {
	_, path := d.recordPath(key)
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: deleting %s: %w", path, err)
	}
	return nil
}

// Close implements Store.
func (d *Disk) Close() error { return nil }
