package store

import (
	"bytes"
	"testing"
)

// FuzzParseRecord hardens the disk record framing: parsing arbitrary
// bytes never panics, and a parsed record of this wire version is
// exactly what frame writes for its key and payload; parse(frame(k, v),
// k) returns v; and a wrong key or any truncation of a framed record is
// an error. The corpus is seeded with the wire golden's record.
func FuzzParseRecord(f *testing.F) {
	golden, err := frame("run|k", []byte("payload"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add("run|k", []byte("payload"), golden, uint32(10))
	f.Add("", []byte{}, golden[:recHeaderLen], uint32(0))
	f.Add("profile|0123", []byte(`{"v":1,"kind":"profile","data":[1,2]}`), []byte("CMRS"), uint32(3))

	f.Fuzz(func(t *testing.T, key string, val, rec []byte, cut uint32) {
		if payload, version, err := parse(rec, key); err == nil && version == diskVersion {
			if again, err := frame(key, payload); err != nil || !bytes.Equal(again, rec) {
				t.Fatalf("parsed record is not what frame writes for its key and payload")
			}
		}
		framed, err := frame(key, val)
		if err != nil {
			return // key or value beyond the format's limits
		}
		payload, version, err := parse(framed, key)
		if err != nil || version != diskVersion || !bytes.Equal(payload, val) {
			t.Fatalf("parse(frame(%q, %q)) = %q, v%d, %v", key, val, payload, version, err)
		}
		if _, _, err := parse(framed, key+"\x00"); err == nil {
			t.Fatal("a record parsed under the wrong key")
		}
		if _, _, err := parse(framed[:int(cut)%len(framed)], key); err == nil {
			t.Fatalf("a record truncated to %d of %d bytes parsed", int(cut)%len(framed), len(framed))
		}
	})
}
