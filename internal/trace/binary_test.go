package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"themis/internal/race"
)

// binaryTestTrace builds a v2 trace exercising every encodable field:
// placement blocks with domain/flavor affinities, shared model names (string
// interning), negative MaxParallelism/TotalIterations/Seed edge values
// (valid per Validate, and zigzag-encoded on the wire), and a minimal
// single-job app.
func binaryTestTrace() Trace {
	return Trace{
		Version: FormatVersion,
		Name:    "binary-roundtrip",
		Apps: []AppSpec{
			{
				ID: "app-0", SubmitTime: 0, Model: "resnet50",
				Jobs: []JobSpec{
					{TotalWork: 120.5, GangSize: 4, MaxParallelism: 16, MinGPUsPerMachine: 2, MaxMachines: 4, TotalIterations: 1000, Quality: 0.75, Seed: 42},
					{TotalWork: 60.25, GangSize: 2, MaxParallelism: -1, MinGPUsPerMachine: 0, MaxMachines: 0, TotalIterations: -1, Quality: 0, Seed: -7},
				},
			},
			{
				ID: "app-1", SubmitTime: 1.5, Model: "resnet50",
				Placement: &PlacementSpec{Profile: "VGG16", MinGPUsPerMachine: 4, MaxMachines: 2, Domain: "rack-0", Flavor: "P100"},
				Jobs: []JobSpec{
					{TotalWork: 300, GangSize: 8, MaxParallelism: 64, TotalIterations: 5000, Quality: 0.9, Seed: 1 << 40},
				},
			},
			{ID: "app-2", SubmitTime: 2.25, Model: "gpt2", Jobs: []JobSpec{{TotalWork: 10, GangSize: 1}}},
		},
	}
}

// A trace must survive JSON→binary→JSON and binary→binary round trips with
// reflect.DeepEqual fidelity, including negative job fields and placement
// blocks.
func TestBinaryRoundTrip(t *testing.T) {
	orig := binaryTestTrace()

	var bin bytes.Buffer
	if err := orig.WriteBinary(&bin); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	back, err := ReadBinary(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if !reflect.DeepEqual(orig, back) {
		t.Fatalf("binary round trip changed the trace:\nfirst:  %+v\nsecond: %+v", orig, back)
	}

	// The decoded trace must re-encode as valid v2 JSON accepted by Read.
	var js bytes.Buffer
	if err := back.Write(&js); err != nil {
		t.Fatalf("Write after binary decode: %v", err)
	}
	fromJSON, err := Read(bytes.NewReader(js.Bytes()))
	if err != nil {
		t.Fatalf("Read of re-encoded JSON: %v", err)
	}
	if !reflect.DeepEqual(orig, fromJSON) {
		t.Fatalf("binary→JSON round trip changed the trace:\nfirst:  %+v\nsecond: %+v", orig, fromJSON)
	}

	// Re-encoding the decoded trace must be byte-identical: the encoder is
	// deterministic (first-use string interning, same delta base).
	var bin2 bytes.Buffer
	if err := back.WriteBinary(&bin2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bin.Bytes(), bin2.Bytes()) {
		t.Error("binary encoding is not deterministic across a decode round trip")
	}
}

// An empty trace (no apps) must round-trip too.
func TestBinaryRoundTripEmpty(t *testing.T) {
	orig := Trace{Version: FormatVersion, Name: "empty"}
	var bin bytes.Buffer
	if err := orig.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&bin)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != "empty" || len(back.Apps) != 0 || back.Version != FormatVersion {
		t.Fatalf("empty trace round trip: got %+v", back)
	}
}

// WriteBinary must refuse traces Validate refuses, so corrupt data can never
// be laundered through the binary encoder.
func TestWriteBinaryValidates(t *testing.T) {
	bad := Trace{Version: FormatVersion, Apps: []AppSpec{{ID: ""}}}
	var missingID *MissingAppIDError
	if err := bad.WriteBinary(io.Discard); !errors.As(err, &missingID) {
		t.Fatalf("WriteBinary(invalid) = %v, want *MissingAppIDError", err)
	}
}

// Every checked-in trace must materialise byte-identically whether it travels
// as v1 JSON, upgraded v2 JSON, or the v3 binary container — the cross-format
// golden guarantee. The goldens themselves are pinned by
// TestV1CrossVersionGolden (and refreshed with -update-golden); here the
// binary path is held to the same bytes.
func TestBinaryCrossFormatGolden(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("testdata", "v1", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no v1 golden traces found under testdata/v1")
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := Read(bytes.NewReader(raw))
			if err != nil {
				t.Fatal(err)
			}

			var bin bytes.Buffer
			if err := tr.WriteBinary(&bin); err != nil {
				t.Fatalf("WriteBinary of upgraded v1 trace: %v", err)
			}
			back, err := ReadBinary(bytes.NewReader(bin.Bytes()))
			if err != nil {
				t.Fatalf("ReadBinary: %v", err)
			}
			if !reflect.DeepEqual(tr, back) {
				t.Fatalf("v1→binary round trip changed the trace:\nfirst:  %+v\nsecond: %+v", tr, back)
			}

			apps, err := back.ToApps()
			if err != nil {
				t.Fatal(err)
			}
			got := dumpApps(apps)
			goldenPath := strings.TrimSuffix(path, ".json") + ".apps.golden"
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run TestV1CrossVersionGolden with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Errorf("binary-decoded trace materialises differently than the JSON golden\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}

// LoadWithInfo must report the encoding and wire version actually found on
// disk — v1 JSON, v2 JSON and v3 binary — while Load keeps returning the
// upgraded in-memory form. This is the contract tracegen validate prints.
func TestLoadWithInfo(t *testing.T) {
	dir := t.TempDir()
	tr := binaryTestTrace()

	v2Path := filepath.Join(dir, "v2.json")
	if err := Save(v2Path, tr); err != nil {
		t.Fatal(err)
	}
	binPath := filepath.Join(dir, "v3.bin")
	if err := SaveBinary(binPath, tr); err != nil {
		t.Fatal(err)
	}
	// A v1 file: the data model without the v2-only fields (placement
	// blocks, per-job max_machines), declaring version 1 on the wire.
	v1 := tr
	v1.Version = formatVersionV1
	v1.Apps = append([]AppSpec(nil), tr.Apps...)
	for i := range v1.Apps {
		v1.Apps[i].Placement = nil
		v1.Apps[i].Jobs = append([]JobSpec(nil), v1.Apps[i].Jobs...)
		for j := range v1.Apps[i].Jobs {
			v1.Apps[i].Jobs[j].MaxMachines = 0
		}
	}
	v1Path := filepath.Join(dir, "v1.json")
	v1f, err := os.Create(v1Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := v1.Write(v1f); err != nil {
		t.Fatal(err)
	}
	if err := v1f.Close(); err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		name     string
		path     string
		encoding Format
		wire     int
	}{
		{"v1-json", v1Path, FormatJSON, 1},
		{"v2-json", v2Path, FormatJSON, 2},
		{"v3-binary", binPath, FormatBinary, BinaryVersion},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, info, err := LoadWithInfo(tc.path)
			if err != nil {
				t.Fatalf("LoadWithInfo: %v", err)
			}
			if info.Encoding != tc.encoding || info.WireVersion != tc.wire {
				t.Errorf("info = %+v, want {%s %d}", info, tc.encoding, tc.wire)
			}
			if got.Version != FormatVersion {
				t.Errorf("loaded trace carries version %d, want upgraded %d", got.Version, FormatVersion)
			}
		})
	}

	// Write declares the trace's own version on the wire; a v1 struct must
	// actually have produced a version-1 file for the table above to mean
	// anything.
	raw, err := os.ReadFile(v1Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(`"version": 1`)) {
		t.Fatalf("test setup: v1 file does not declare version 1:\n%s", raw)
	}
}

// Corrupt containers must fail with *CorruptTraceError (or a typed version
// error), never a panic and never silent acceptance.
func TestBinaryCorruptInputs(t *testing.T) {
	var valid bytes.Buffer
	if err := binaryTestTrace().WriteBinary(&valid); err != nil {
		t.Fatal(err)
	}
	enc := valid.Bytes()

	corrupt := func(mutate func([]byte) []byte) []byte {
		return mutate(append([]byte(nil), enc...))
	}
	tests := []struct {
		name    string
		input   []byte
		wantVer bool // want *UnsupportedVersionError instead of *CorruptTraceError
	}{
		{name: "empty", input: nil},
		{name: "bad-magic", input: corrupt(func(b []byte) []byte { b[0] = 'X'; return b })},
		{name: "future-version", input: corrupt(func(b []byte) []byte { b[4] = 9; return b }), wantVer: true},
		{name: "truncated-header", input: enc[:3]},
		{name: "truncated-string-table", input: enc[:8]},
		{name: "truncated-apps", input: enc[:len(enc)-12]},
		{name: "missing-end-marker", input: enc[:len(enc)-2]},
		{name: "trailing-garbage", input: append(corrupt(func(b []byte) []byte { return b }), 0xFF)},
		{name: "wrong-section-id", input: corrupt(func(b []byte) []byte { b[5] = 0x7F; return b })},
		{name: "varint-overflow-version", input: append([]byte(binaryMagic), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x7f)},
		{name: "huge-string-count", input: append([]byte(binaryMagic), 3, secStrings, 2, 0xFF, 0x7F)},
		{name: "huge-app-count", input: func() []byte {
			// Valid header + empty-string table, then an apps section whose
			// count cannot be backed by its frame.
			b := []byte(binaryMagic)
			b = append(b, 3)                      // version
			b = append(b, secStrings, 2, 1, 0)    // 1 entry: ""
			b = append(b, secApps, 3, 0, 0xFF, 1) // name idx 0, count 255, 3-byte frame
			return b
		}()},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadBinary(bytes.NewReader(tc.input))
			if err == nil {
				t.Fatal("corrupt input accepted")
			}
			var ce *CorruptTraceError
			var ve *UnsupportedVersionError
			switch {
			case tc.wantVer && !errors.As(err, &ve):
				t.Fatalf("err = %v, want *UnsupportedVersionError", err)
			case !tc.wantVer && !errors.As(err, &ce):
				t.Fatalf("err = %v (%T), want *CorruptTraceError", err, err)
			}
		})
	}
}

// Decode errors must be sticky: after a corruption, every further Next
// returns the same typed error instead of yielding garbage apps.
func TestBinaryDecoderStickyError(t *testing.T) {
	var valid bytes.Buffer
	if err := binaryTestTrace().WriteBinary(&valid); err != nil {
		t.Fatal(err)
	}
	enc := valid.Bytes()
	d, err := NewBinaryDecoder(bytes.NewReader(enc[:len(enc)-12]))
	if err != nil {
		t.Fatalf("truncated apps payload should still open (header is intact): %v", err)
	}
	var first error
	for i := 0; i < 10; i++ {
		_, err := d.Next()
		if err == nil {
			continue
		}
		if first == nil {
			first = err
			var ce *CorruptTraceError
			if !errors.As(err, &ce) {
				t.Fatalf("first error = %v, want *CorruptTraceError", err)
			}
			continue
		}
		if err != first {
			t.Fatalf("error not sticky: first %v, later %v", first, err)
		}
	}
	if first == nil {
		t.Fatal("truncated trace decoded without error")
	}
}

// bigBinaryTrace encodes a uniform n-app trace (every app: one model of
// three, a placement block on every third app, two jobs) for the zero-alloc
// and throughput measurements.
func bigBinaryTrace(n int) []byte {
	tr := Trace{Version: FormatVersion, Name: "alloc-probe"}
	models := []string{"resnet50", "vgg16", "gpt2"}
	for i := 0; i < n; i++ {
		app := AppSpec{
			ID:         fmt.Sprintf("app-%06d", i),
			SubmitTime: float64(i) * 0.05,
			Model:      models[i%len(models)],
			Jobs: []JobSpec{
				{TotalWork: 60 + float64(i%5)*20, GangSize: 4, MaxParallelism: 16, TotalIterations: 100, Quality: 0.5, Seed: int64(i)},
				{TotalWork: 30, GangSize: 2, MaxParallelism: 8, TotalIterations: 50, Quality: 0.25, Seed: int64(i) + 1},
			},
		}
		if i%3 == 0 {
			app.Placement = &PlacementSpec{Profile: "ResNet50", MinGPUsPerMachine: 2, MaxMachines: 4, Domain: "rack-0", Flavor: "P100"}
		}
		tr.Apps = append(tr.Apps, app)
	}
	var buf bytes.Buffer
	if err := tr.WriteBinary(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// Steady-state streaming decode must not allocate: after the first few apps
// have sized the decoder's reused buffers, Next is 0 allocs/op. This is the
// binary half of the PR's allocation contract (TestEventCoreZeroAlloc in
// internal/sim is the other half); CI runs both as a distinct step.
func TestBinaryDecodeZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; zero-alloc contract is checked without -race")
	}
	const runs = 2000
	enc := bigBinaryTrace(runs + 64)
	d, err := NewBinaryDecoder(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: let the jobs buffer reach its steady-state capacity.
	for i := 0; i < 32; i++ {
		if _, err := d.Next(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := d.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("BinaryDecoder.Next allocates %.1f objects/op in steady state, want 0", allocs)
	}
}

// BenchmarkBinaryTraceDecode measures streaming decode throughput over a
// 4096-app container.
func BenchmarkBinaryTraceDecode(b *testing.B) {
	enc := bigBinaryTrace(4096)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := NewBinaryDecoder(bytes.NewReader(enc))
		if err != nil {
			b.Fatal(err)
		}
		for {
			_, err := d.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkBinaryTraceEncode pairs the decoder benchmark for the write path.
func BenchmarkBinaryTraceEncode(b *testing.B) {
	tr, err := ReadBinary(bytes.NewReader(bigBinaryTrace(4096)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WriteBinary(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
