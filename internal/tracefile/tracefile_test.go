package tracefile

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/kpn"
	"repro/internal/workloads"
)

// miniWorkload is a tiny deterministic two-task pipeline exercising
// every recordable operation class: exec runs, word accesses of both
// sizes and directions, bulk transfers, frame pixels, FIFO tokens, EOF
// and close.
func miniWorkload() core.Workload {
	return core.Workload{Name: "mini", Factory: func() (*core.App, error) {
		b := core.NewBuilder("mini")
		fifo := b.AddFIFO("pc", 16, 4)
		frame := b.AddFrame("fr", 8, 8, 1)
		buf := b.AddBuffer("in", 256)
		b.AddTask(core.TaskConfig{Name: "prod", CPU: 0, Body: func(c *kpn.Ctx) {
			tok := make([]byte, 16)
			for i := 0; i < 8; i++ {
				c.Exec(50)
				c.LoadBytes(buf, uint64(i*16), tok)
				c.Store32(c.Heap(), uint64(i*4), uint32(i*3+1))
				c.Store8(c.Heap(), uint64(64+i), byte(i))
				fifo.Write(c, tok)
			}
			fifo.Close(c)
		}})
		b.AddTask(core.TaskConfig{Name: "cons", CPU: 1, Body: func(c *kpn.Ctx) {
			tok := make([]byte, 16)
			row := make([]byte, 8)
			for i := 0; fifo.Read(c, tok); i++ {
				c.Exec(30)
				v := c.Load32(c.Heap(), 0)
				frame.Store8(c, i%8, i/8, byte(v)+c.Load8(c.Heap(), 4)+tok[0])
				c.StoreBytes(c.Heap(), 128, row)
			}
			frame.LoadRow(c, 0, row)
		}})
		return b.Build()
	}}
}

func captureMini(t *testing.T) *Trace {
	t.Helper()
	tr, err := Capture(miniWorkload(), Meta{Workload: "mini", Scale: "small", Seed: 0})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestCaptureRoundtrip(t *testing.T) {
	tr := captureMini(t)
	if tr.Header.App != "mini" || len(tr.Header.Tasks) != 2 {
		t.Fatalf("unexpected header: %+v", tr.Header)
	}
	if tr.Totals.Instrs != 8*50+8*30 {
		t.Errorf("instrs = %d, want %d", tr.Totals.Instrs, 8*50+8*30)
	}
	// 9 reads (8 tokens + EOF), 8 writes, 1 close.
	if tr.Totals.FIFOOps != 18 {
		t.Errorf("fifo ops = %d, want 18", tr.Totals.FIFOOps)
	}
	if tr.Totals.Accesses == 0 || tr.Totals.BulkOps == 0 {
		t.Errorf("missing event classes: %+v", tr.Totals)
	}
	back, err := Decode(tr.Bytes())
	if err != nil {
		t.Fatalf("re-decode: %v", err)
	}
	if back.Totals != tr.Totals || back.Header.Events != tr.Header.Events {
		t.Fatalf("re-decode drifted: %+v vs %+v", back.Totals, tr.Totals)
	}

	path := filepath.Join(t.TempDir(), "mini.ctr")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	fromDisk, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromDisk.Bytes(), tr.Bytes()) {
		t.Fatal("file roundtrip drifted")
	}
}

// wrappedAccessContainer encodes a one-task trace over one region
// (0x1000 bytes at 0x1000) whose only event reads 4 bytes at address
// 0xfffffffffffffffe (delta -2 from 0): an access whose end wraps past
// 2^64.
func wrappedAccessContainer(t testing.TB) []byte {
	t.Helper()
	stream := []byte{evRead4, 0, 3} // region 0, zigzag(-2) = 3
	h := Header{
		Meta:    Meta{Workload: "wrapped", Scale: "small"},
		App:     "wrapped",
		Regions: []RegionInfo{{Name: "data", Base: 0x1000, Size: 0x1000}},
		Tasks:   []TaskInfo{{Name: "t", Stack: -1, Heap: -1}},
		Events:  1,
		Streams: []StreamInfo{{Events: 1, Bytes: uint64(len(stream))}},
	}
	hb, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	buf := append([]byte(Magic), 0, Version, 0, 0)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(hb)))
	buf = append(append(buf, hb...), stream...)
	return binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf, castagnoli))
}

// TestDecodeRejectsWrappedAccess is the regression test for an access
// bound that wrapped: a read at 0xfffffffffffffffe ends past 2^64, and
// the end-of-access sum once wrapped to 2 and passed the region check,
// after which a replay charged the access with no latency.
func TestDecodeRejectsWrappedAccess(t *testing.T) {
	tr, err := Decode(wrappedAccessContainer(t))
	if err == nil {
		t.Fatalf("a trace accessing 0xfffffffffffffffe decoded with totals %+v", tr.Totals)
	}
	if !strings.Contains(err.Error(), "access at 0xfffffffffffffffe outside region") {
		t.Errorf("want the out-of-region error, got %v", err)
	}
}

// TestCaptureDigestSmall pins the containers of the small-scale
// applications, whose streams (up to 400 KB a task) cross many capture
// chunks: a recorder that dropped, reordered or split an event at a
// chunk boundary would change these bytes, which the 1.5 KB mini golden,
// recorded into one chunk per task, never could.
func TestCaptureDigestSmall(t *testing.T) {
	for _, c := range []struct {
		name, sha256 string
	}{
		{"2jpeg+canny", "939501bdbec36fa3e0326ec39d6b1e298be67321db312b62a13cd37a894b3bdb"},
		{"mpeg2", "67a52de065fa56b67feb1180ff8353c0160ed371742884a86504716bc8438a60"},
		{"jpeg1-only", "eaa9e26337a2d165949572044d64184c130485964d6a963f048c841a1a165f21"},
	} {
		w, err := workloads.Build(c.name, workloads.BuildConfig{Scale: workloads.Small})
		if err != nil {
			t.Fatal(err)
		}
		tr, err := Capture(w, Meta{Workload: c.name, Scale: workloads.Small.String()})
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(tr.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.sha256 {
			t.Errorf("%s: container sha256 %s (%d bytes), want %s", c.name, got, tr.Size(), c.sha256)
		}
	}
}

func TestCaptureDeterministic(t *testing.T) {
	a, b := captureMini(t), captureMini(t)
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two captures of the same workload differ")
	}
}

// TestCaptureOfReplayIsIdentity proves the replay body re-issues the
// exact recorded operation stream: recording a replayed instance yields
// a byte-identical container. This is the Ctx-level half of the
// replay ≡ live argument (the engine-output half lives in
// internal/experiments).
func TestCaptureOfReplayIsIdentity(t *testing.T) {
	tr := captureMini(t)
	app, err := tr.App()
	if err != nil {
		t.Fatal(err)
	}
	again, err := CaptureApp(app, tr.Header.Meta)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), tr.Bytes()) {
		t.Fatal("capture(replay(trace)) != trace")
	}
}

func TestReplayRebuildsTopology(t *testing.T) {
	tr := captureMini(t)
	app, err := tr.App()
	if err != nil {
		t.Fatal(err)
	}
	live, err := miniWorkload().Factory()
	if err != nil {
		t.Fatal(err)
	}
	if app.AS.NumRegions() != live.AS.NumRegions() {
		t.Fatalf("regions: %d vs %d", app.AS.NumRegions(), live.AS.NumRegions())
	}
	for i, r := range live.AS.Regions() {
		g := app.AS.Regions()[i]
		if g.Name != r.Name || g.Kind != r.Kind || g.Owner != r.Owner || g.Base != r.Base || g.Size != r.Size {
			t.Errorf("region %d: %v vs %v", i, g, r)
		}
	}
	if len(app.FIFOs) != 1 || app.FIFOs[0].TokenBytes != 16 || app.FIFOs[0].Cap != 4 {
		t.Fatalf("fifo topology lost: %+v", app.FIFOs)
	}
	if len(app.Frames) != 1 || app.Frames[0].Width != 8 {
		t.Fatalf("frame topology lost: %+v", app.Frames)
	}
	if app.Tasks[0].CPU != 0 || app.Tasks[1].CPU != 1 {
		t.Fatalf("task placement lost")
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	tr := captureMini(t)
	data := tr.Bytes()

	for _, n := range []int{0, 1, 4, 11, 15, len(data) / 2, len(data) - 1} {
		if n >= len(data) {
			continue
		}
		if _, err := Decode(data[:n]); err == nil {
			t.Errorf("truncation to %d bytes decoded", n)
		}
	}
	// Flip one bit at a spread of offsets; the CRC must catch each.
	for off := 0; off < len(data); off += 7 {
		mut := bytes.Clone(data)
		mut[off] ^= 0x10
		if _, err := Decode(mut); err == nil {
			t.Errorf("bit flip at offset %d decoded", off)
		}
	}
	bad := bytes.Clone(data)
	copy(bad, "XXXX")
	if _, err := Decode(bad); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic: %v", err)
	}
}

// registerSeq keeps the registered workload names unique under
// -count=N.
var registerSeq atomic.Int64

func TestRegisterWorkload(t *testing.T) {
	tr := captureMini(t)
	name := fmt.Sprintf("mini-trace-test-%d", registerSeq.Add(1))
	if err := RegisterWorkload(name, tr); err != nil {
		t.Fatal(err)
	}
	b, ok := workloads.Lookup(name)
	if !ok {
		t.Fatal("registered trace workload not found")
	}
	w := b(workloads.BuildConfig{Scale: workloads.Paper, Seed: 99})
	if w.Name != name {
		t.Fatalf("workload name = %q", w.Name)
	}
	app, err := w.Factory()
	if err != nil {
		t.Fatal(err)
	}
	if app.Name != "mini" {
		t.Fatalf("app name = %q", app.Name)
	}
}
