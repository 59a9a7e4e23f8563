package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// FuzzBinaryDecoderMatchesOracle holds the sticky-error decoder to the one it
// replaced, kept below: on every input, ReadBinary and each
// NewBinaryDecoder/Next step return the same trace or app and the same error
// (same type, Offset and Reason) as the oracle. Specs are compared by %#v of
// their values, so NaN fields compare equal and pointers do not matter.
func FuzzBinaryDecoderMatchesOracle(f *testing.F) {
	var valid bytes.Buffer
	if err := binaryTestTrace().WriteBinary(&valid); err != nil {
		f.Fatal(err)
	}
	enc := valid.Bytes()
	for i := 0; i <= len(enc); i++ {
		f.Add(enc[:i])
	}
	for i := range enc {
		flipped := bytes.Clone(enc)
		flipped[i] ^= 0xff
		f.Add(flipped)
	}
	for _, seed := range roundTripCorpus(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadBinary(bytes.NewReader(data))
		otr, oerr := oracleReadBinary(bytes.NewReader(data))
		sameDecode(t, "ReadBinary", traceString(tr), err, traceString(otr), oerr)

		d, err := NewBinaryDecoder(bytes.NewReader(data))
		od, oerr := newOracleBinaryDecoder(bytes.NewReader(data))
		sameDecode(t, "NewBinaryDecoder", "", err, "", oerr)
		if err != nil {
			return
		}
		for step := 0; ; step++ {
			app, err := d.Next()
			oapp, oerr := od.Next()
			got := fmt.Sprintf("%q %d %s", d.Name(), d.Remaining(), specString(app))
			want := fmt.Sprintf("%q %d %s", od.Name(), od.Remaining(), specString(oapp))
			sameDecode(t, fmt.Sprintf("Next step %d", step), got, err, want, oerr)
			if err != nil {
				// Both must keep the error they stopped on.
				_, err = d.Next()
				_, oerr = od.Next()
				sameDecode(t, "Next after the error", "", err, "", oerr)
				return
			}
		}
	})
}

// sameDecode fails the test unless both decoders returned the same value and
// the same error.
func sameDecode(t *testing.T, what, got string, err error, want string, oerr error) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: decoded\n%s\nwant (oracle)\n%s", what, got, want)
	}
	// %#v of a typed error pointer prints its type and every field.
	if g, w := fmt.Sprintf("%#v", err), fmt.Sprintf("%#v", oerr); g != w {
		t.Fatalf("%s: error %s, oracle %s", what, g, w)
	}
}

// traceString formats a trace by value, placement blocks dereferenced.
func traceString(tr Trace) string {
	var b strings.Builder
	fmt.Fprintf(&b, "version %d name %q nil apps %t", tr.Version, tr.Name, tr.Apps == nil)
	for i := range tr.Apps {
		b.WriteString("\n" + specString(&tr.Apps[i]))
	}
	return b.String()
}

// specString formats an app spec by value, its placement block dereferenced.
func specString(a *AppSpec) string {
	if a == nil {
		return "<nil>"
	}
	v, block := *a, "<nil>"
	if v.Placement != nil {
		block = fmt.Sprintf("%#v", *v.Placement)
		v.Placement = nil
	}
	return fmt.Sprintf("%#v placement %s", v, block)
}

// roundTripCorpus reads the inputs of FuzzBinaryTraceRoundTrip's seed corpus,
// which holds the hostile shapes the decoder's checks were written against.
func roundTripCorpus(f *testing.F) [][]byte {
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzBinaryTraceRoundTrip", "*"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no FuzzBinaryTraceRoundTrip corpus: %v", err)
	}
	var inputs [][]byte
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit, ok := strings.CutPrefix(lines[len(lines)-1], "[]byte(")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" || !ok {
			f.Fatalf("%s: not a one-[]byte corpus entry", p)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			f.Fatalf("%s: %v", p, err)
		}
		inputs = append(inputs, []byte(s))
	}
	return inputs
}

// The oracle: the streaming decoder as it stood before its read helpers kept
// a sticky error. Every helper returned (value, error) and every caller
// passed the error along. It is kept verbatim, identifiers renamed.

// oracleBinaryDecoder streams apps out of a v3 binary trace without materialising
// the whole trace: the string table loads once up front, and each Next call
// decodes one app into an internal buffer that is reused across calls. In
// steady state (after the first few apps have sized the buffers) Next
// performs zero heap allocations.
//
// The *AppSpec returned by Next — including its Jobs slice and Placement
// block — is only valid until the next Next call; callers retaining an app
// must copy it (oracleReadBinary does).
type oracleBinaryDecoder struct {
	br     *bufio.Reader
	table  []string
	name   string
	remain int    // apps not yet decoded
	left   int64  // bytes left in the current section frame
	offset int64  // bytes consumed from the stream, for error positions
	prev   uint64 // previous app's SubmitTime bits (delta base)

	app     AppSpec
	jobs    []JobSpec
	block   PlacementSpec
	scratch [8]byte
	err     error // sticky decode error
}

// newOracleBinaryDecoder reads the container header, the string table and the apps
// section header from r, returning a decoder ready to stream apps. Corrupt
// input fails with *CorruptTraceError.
func newOracleBinaryDecoder(r io.Reader) (*oracleBinaryDecoder, error) {
	d := &oracleBinaryDecoder{br: bufio.NewReader(r)}
	if err := d.readHeader(); err != nil {
		return nil, err
	}
	return d, nil
}

// Name returns the trace name recorded in the container.
func (d *oracleBinaryDecoder) Name() string { return d.name }

// Remaining returns how many apps Next has not yet yielded.
func (d *oracleBinaryDecoder) Remaining() int { return d.remain }

// Next returns the next app in the trace, or io.EOF after the last one (at
// which point the container's end marker has been verified). The returned
// spec is reused by the following Next call.
func (d *oracleBinaryDecoder) Next() (*AppSpec, error) {
	if d.err != nil {
		return nil, d.err
	}
	if d.remain == 0 {
		if d.left != 0 {
			return nil, d.corrupt("%d trailing bytes in apps section", d.left)
		}
		if err := d.readEndMarker(); err != nil {
			return nil, err
		}
		d.err = io.EOF
		return nil, io.EOF
	}
	d.remain--

	idIdx, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	id, err := d.str(idIdx)
	if err != nil {
		return nil, err
	}
	delta, err := d.varint()
	if err != nil {
		return nil, err
	}
	d.prev += uint64(delta)
	modelIdx, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	model, err := d.str(modelIdx)
	if err != nil {
		return nil, err
	}
	flags, err := d.readByte()
	if err != nil {
		return nil, err
	}
	if flags&^appFlagPlacement != 0 {
		return nil, d.corrupt("unknown app flag bits 0x%02x", flags&^appFlagPlacement)
	}
	d.app = AppSpec{ID: id, SubmitTime: math.Float64frombits(d.prev), Model: model}
	if flags&appFlagPlacement != 0 {
		if err := d.readPlacement(); err != nil {
			return nil, err
		}
		d.app.Placement = &d.block
	}
	jobCount, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if jobCount > uint64(d.left)/minJobEncodedBytes {
		return nil, d.corrupt("job count %d exceeds the %d bytes left in the apps section", jobCount, d.left)
	}
	d.jobs = d.jobs[:0]
	for i := uint64(0); i < jobCount; i++ {
		js, err := d.readJob()
		if err != nil {
			return nil, err
		}
		d.jobs = append(d.jobs, js)
	}
	d.app.Jobs = d.jobs
	return &d.app, nil
}

// readHeader consumes the magic, container version, string table and the
// apps-section header.
func (d *oracleBinaryDecoder) readHeader() error {
	if err := d.readFullRaw(d.scratch[:len(binaryMagic)]); err != nil {
		return err
	}
	if string(d.scratch[:len(binaryMagic)]) != binaryMagic {
		return d.corrupt("bad magic %q (want %q)", d.scratch[:len(binaryMagic)], binaryMagic)
	}
	// The container version frames everything after it; an unknown version is
	// a negotiation failure, not corruption.
	d.left = binary.MaxVarintLen64 // bound the header varint read
	version, err := d.uvarint()
	if err != nil {
		return err
	}
	if version != BinaryVersion {
		d.err = &UnsupportedVersionError{Version: int(version)}
		return d.err
	}
	if err := d.readStringTable(); err != nil {
		return err
	}
	// Apps section header: id, frame length, trace-name index, app count.
	if err := d.readSectionHeader(secApps, "apps"); err != nil {
		return err
	}
	nameIdx, err := d.uvarint()
	if err != nil {
		return err
	}
	if d.name, err = d.str(nameIdx); err != nil {
		return err
	}
	count, err := d.uvarint()
	if err != nil {
		return err
	}
	// The smallest app record (id, delta, model, flags, job count) is 5
	// bytes; a count the frame cannot back is corrupt.
	if count > uint64(d.left)/5 {
		return d.corrupt("app count %d exceeds the %d-byte apps section", count, d.left)
	}
	d.remain = int(count)
	return nil
}

// readSectionHeader consumes one section header and checks its identifier,
// setting the frame bound for subsequent reads.
func (d *oracleBinaryDecoder) readSectionHeader(want byte, name string) error {
	id, err := d.readByteRaw()
	if err != nil {
		return err
	}
	if id != want {
		return d.corrupt("expected %s section (0x%02x), found 0x%02x", name, want, id)
	}
	d.left = binary.MaxVarintLen64
	length, err := d.uvarint()
	if err != nil {
		return err
	}
	if length > math.MaxInt64 {
		return d.corrupt("%s section length %d overflows", name, length)
	}
	d.left = int64(length)
	return nil
}

// readStringTable loads the interned-name table.
func (d *oracleBinaryDecoder) readStringTable() error {
	if err := d.readSectionHeader(secStrings, "string table"); err != nil {
		return err
	}
	count, err := d.uvarint()
	if err != nil {
		return err
	}
	// Every entry takes at least its one-byte length prefix.
	if count > uint64(d.left) {
		return d.corrupt("string table claims %d entries in %d bytes", count, d.left)
	}
	// The declared section length is attacker-controlled and unverifiable in
	// a streaming read, so the count check above does not bound memory by
	// itself: allocations below must grow only as real input bytes arrive
	// (lazy table growth, chunked string reads), letting a lying frame die
	// of truncation instead of a giant up-front make.
	d.table = make([]string, 0, min(count, 1024))
	var chunk []byte
	for i := uint64(0); i < count; i++ {
		slen, err := d.uvarint()
		if err != nil {
			return err
		}
		if slen > uint64(d.left) {
			return d.corrupt("string %d length %d exceeds the %d bytes left in the table", i, slen, d.left)
		}
		const maxChunk = 64 << 10
		var buf bytes.Buffer
		for n := slen; n > 0; {
			c := min(n, maxChunk)
			if uint64(len(chunk)) < c {
				chunk = make([]byte, c)
			}
			if err := d.readFull(chunk[:c]); err != nil {
				return err
			}
			buf.Write(chunk[:c])
			n -= c
		}
		if !utf8.Valid(buf.Bytes()) {
			// The JSON encoding cannot represent invalid UTF-8, so accepting
			// it here would break the cross-format round-trip guarantee.
			return d.corrupt("string %d is not valid UTF-8", i)
		}
		d.table = append(d.table, buf.String())
	}
	if d.left != 0 {
		return d.corrupt("%d trailing bytes in string table", d.left)
	}
	return nil
}

// readPlacement decodes a placement block into the reused d.block.
func (d *oracleBinaryDecoder) readPlacement() error {
	profIdx, err := d.uvarint()
	if err != nil {
		return err
	}
	profile, err := d.str(profIdx)
	if err != nil {
		return err
	}
	minGPUs, err := d.uvarintInt("placement min_gpus_per_machine")
	if err != nil {
		return err
	}
	maxMach, err := d.uvarintInt("placement max_machines")
	if err != nil {
		return err
	}
	domIdx, err := d.uvarint()
	if err != nil {
		return err
	}
	domain, err := d.str(domIdx)
	if err != nil {
		return err
	}
	flavIdx, err := d.uvarint()
	if err != nil {
		return err
	}
	flavor, err := d.str(flavIdx)
	if err != nil {
		return err
	}
	d.block = PlacementSpec{Profile: profile, MinGPUsPerMachine: minGPUs, MaxMachines: maxMach, Domain: domain, Flavor: flavor}
	return nil
}

// readJob decodes one job record.
func (d *oracleBinaryDecoder) readJob() (JobSpec, error) {
	var js JobSpec
	work, err := d.fixed64()
	if err != nil {
		return js, err
	}
	js.TotalWork = math.Float64frombits(work)
	if js.GangSize, err = d.uvarintInt("gang_size"); err != nil {
		return js, err
	}
	if js.MaxParallelism, err = d.varintInt("max_parallelism"); err != nil {
		return js, err
	}
	if js.MinGPUsPerMachine, err = d.uvarintInt("min_gpus_per_machine"); err != nil {
		return js, err
	}
	if js.MaxMachines, err = d.uvarintInt("max_machines"); err != nil {
		return js, err
	}
	if js.TotalIterations, err = d.varintInt("total_iterations"); err != nil {
		return js, err
	}
	quality, err := d.fixed64()
	if err != nil {
		return js, err
	}
	js.Quality = math.Float64frombits(quality)
	if js.Seed, err = d.varint(); err != nil {
		return js, err
	}
	return js, nil
}

// readEndMarker consumes and checks the container's end-of-sections marker.
func (d *oracleBinaryDecoder) readEndMarker() error {
	id, err := d.readByteRaw()
	if err != nil {
		return err
	}
	if id != secEnd {
		return d.corrupt("expected end marker, found section 0x%02x", id)
	}
	d.left = binary.MaxVarintLen64
	length, err := d.uvarint()
	if err != nil {
		return err
	}
	if length != 0 {
		return d.corrupt("end marker declares %d payload bytes", length)
	}
	return nil
}

// str resolves a string-table index, range-checked.
func (d *oracleBinaryDecoder) str(idx uint64) (string, error) {
	if idx >= uint64(len(d.table)) {
		return "", d.corrupt("string index %d out of range (table has %d entries)", idx, len(d.table))
	}
	return d.table[idx], nil
}

// readByteRaw reads one byte outside any section frame (section identifiers
// and the header magic).
func (d *oracleBinaryDecoder) readByteRaw() (byte, error) {
	b, err := d.br.ReadByte()
	if err != nil {
		return 0, d.ioErr(err)
	}
	d.offset++
	return b, nil
}

// readFullRaw fills p outside any section frame.
func (d *oracleBinaryDecoder) readFullRaw(p []byte) error {
	n, err := io.ReadFull(d.br, p)
	d.offset += int64(n)
	if err != nil {
		return d.ioErr(err)
	}
	return nil
}

// readByte reads one byte inside the current section frame.
func (d *oracleBinaryDecoder) readByte() (byte, error) {
	if d.left <= 0 {
		return 0, d.corrupt("read past the end of the section frame")
	}
	b, err := d.br.ReadByte()
	if err != nil {
		return 0, d.ioErr(err)
	}
	d.left--
	d.offset++
	return b, nil
}

// readFull fills p from inside the current section frame.
func (d *oracleBinaryDecoder) readFull(p []byte) error {
	if int64(len(p)) > d.left {
		return d.corrupt("read of %d bytes past the end of the section frame", len(p))
	}
	n, err := io.ReadFull(d.br, p)
	d.left -= int64(n)
	d.offset += int64(n)
	if err != nil {
		return d.ioErr(err)
	}
	return nil
}

// uvarint reads an unsigned varint, rejecting 64-bit overflow.
func (d *oracleBinaryDecoder) uvarint() (uint64, error) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		b, err := d.readByte()
		if err != nil {
			return 0, err
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, d.corrupt("varint overflows 64 bits")
			}
			return x | uint64(b)<<s, nil
		}
		x |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, d.corrupt("varint overflows 64 bits")
}

// varint reads a zigzag-encoded signed varint.
func (d *oracleBinaryDecoder) varint() (int64, error) {
	ux, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, nil
}

// uvarintInt reads an unsigned varint that must fit an int.
func (d *oracleBinaryDecoder) uvarintInt(field string) (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt {
		return 0, d.corrupt("%s value %d overflows int", field, v)
	}
	return int(v), nil
}

// varintInt reads a signed varint that must fit an int.
func (d *oracleBinaryDecoder) varintInt(field string) (int, error) {
	v, err := d.varint()
	if err != nil {
		return 0, err
	}
	if v > math.MaxInt || v < math.MinInt {
		return 0, d.corrupt("%s value %d overflows int", field, v)
	}
	return int(v), nil
}

// fixed64 reads a little-endian 8-byte value.
func (d *oracleBinaryDecoder) fixed64() (uint64, error) {
	if err := d.readFull(d.scratch[:8]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(d.scratch[:8]), nil
}

// corrupt records and returns a typed corruption error at the current
// stream position.
func (d *oracleBinaryDecoder) corrupt(format string, args ...any) error {
	d.err = &CorruptTraceError{Offset: d.offset, Reason: fmt.Sprintf(format, args...)}
	return d.err
}

// ioErr converts a read failure into the decoder's sticky error: EOF inside
// a structure is truncation (corruption); anything else is a real I/O error
// and is surfaced as such.
func (d *oracleBinaryDecoder) ioErr(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return d.corrupt("truncated input")
	}
	d.err = fmt.Errorf("trace: reading binary trace: %w", err)
	return d.err
}

// oracleReadBinary parses and validates a complete trace from a v3 binary stream.
// Like Read, the result carries the current format version, so Write on it
// emits valid v2 JSON — the two encodings are interchangeable representations
// of the same trace.
func oracleReadBinary(r io.Reader) (Trace, error) {
	d, err := newOracleBinaryDecoder(r)
	if err != nil {
		return Trace{}, err
	}
	t := Trace{Version: FormatVersion, Name: d.Name()}
	t.Apps = make([]AppSpec, 0, min(d.Remaining(), 1024))
	for {
		app, err := d.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Trace{}, err
		}
		spec := *app
		spec.Jobs = append([]JobSpec(nil), app.Jobs...)
		if app.Placement != nil {
			block := *app.Placement
			spec.Placement = &block
		}
		t.Apps = append(t.Apps, spec)
	}
	// The container is the whole stream here (unlike the embeddable
	// streaming decoder): bytes after the end marker mean the file is not
	// what it claims to be.
	if _, err := d.br.ReadByte(); err == nil {
		return Trace{}, &CorruptTraceError{Offset: d.offset, Reason: "trailing bytes after end marker"}
	} else if err != io.EOF {
		return Trace{}, fmt.Errorf("trace: reading binary trace: %w", err)
	}
	if err := t.Validate(); err != nil {
		return Trace{}, err
	}
	return t, nil
}
