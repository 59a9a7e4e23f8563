package trace

// Binary trace container (format v3).
//
// v3 is not a third JSON schema: it is a compact binary container around the
// v2 data model, built for multi-GB replays where JSON decode time and
// allocation churn dominate. The layout is sectioned and length-framed so a
// reader can stream apps without materialising the trace (and an mmap-backed
// reader can skip straight to a section):
//
//	magic "THMB" | uvarint container version (3)
//	section: 0x01 | uvarint len | string table
//	section: 0x02 | uvarint len | apps
//	section: 0x00 | uvarint 0     (end marker)
//
// The string table interns every name in the trace — app IDs, model/profile
// names, fabric-domain and GPU-flavor affinities — as uvarint-length-prefixed
// UTF-8, so app records reference names by index and repeated names (the
// common case: a handful of models across thousands of apps) are stored once.
// Index 0 is always the empty string.
//
// The apps section holds the trace-name index, an app count, then each app:
//
//	uvarint id index
//	zigzag-varint delta of Float64bits(SubmitTime) vs the previous app
//	uvarint model index
//	flags byte (bit 0: placement block present)
//	placement block, when present: uvarint profile/min-gpus/max-machines,
//	  uvarint domain index, uvarint flavor index
//	uvarint job count, then per job: fixed64 total work, uvarint gang size,
//	  zigzag max parallelism, uvarint min-gpus/max-machines, zigzag total
//	  iterations, fixed64 quality, zigzag seed
//
// Submit-time deltas exploit that IEEE 754 bit patterns of non-negative
// floats are monotonic: a trace sorted by submit time produces small bit
// deltas that varint-encode in a few bytes, and the reconstruction
// (wrapping uint64 addition) is lossless for every float64, sorted or not.
//
// Decoding defends against hostile input: every read is bounded by its
// section frame, counts are checked against the bytes that could possibly
// back them before any allocation, string-table indices are range-checked,
// varints reject 64-bit overflow, and unknown flag bits or trailing bytes are
// errors. All corruption surfaces as *CorruptTraceError — never a panic.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"unicode/utf8"
)

// binaryMagic identifies a v3 binary trace container.
const binaryMagic = "THMB"

// BinaryVersion is the wire version of the binary trace container. It
// extends the SupportedVersions history: v3 is the binary encoding of the v2
// data model, so binary traces decode to Version == FormatVersion in memory
// and re-encode losslessly as v2 JSON.
const BinaryVersion = 3

// Section identifiers of the binary container.
const (
	secEnd     = 0x00
	secStrings = 0x01
	secApps    = 0x02
)

// appFlagPlacement marks an app record carrying a placement block. All other
// flag bits are reserved and must be zero.
const appFlagPlacement = 0x01

// minJobEncodedBytes is the smallest possible encoded job (two fixed64
// floats plus five single-byte varints plus a single-byte seed); job counts
// claiming more jobs than the section has bytes for are rejected before any
// allocation.
const minJobEncodedBytes = 8 + 1 + 1 + 1 + 1 + 1 + 8 + 1

// WriteBinary encodes the trace in the v3 binary container format. The trace
// is validated first, so only traces Read/ReadBinary would accept are ever
// encoded; a v1 trace encodes losslessly (it decodes back at the current
// format version, exactly like the JSON Upgrade on read).
func (t Trace) WriteBinary(w io.Writer) error {
	if err := t.Validate(); err != nil {
		return err
	}
	// Names are interned as the apps section first references them, so the
	// table lists them in first-use order.
	var strs []byte
	index := make(map[string]uint64)
	ref := func(b []byte, s string) []byte {
		i, ok := index[s]
		if !ok {
			i = uint64(len(index))
			index[s] = i
			strs = binary.AppendUvarint(strs, uint64(len(s)))
			strs = append(strs, s...)
		}
		return binary.AppendUvarint(b, i)
	}
	ref(nil, "") // index 0 is the empty string

	apps := ref(nil, t.Name)
	apps = binary.AppendUvarint(apps, uint64(len(t.Apps)))
	prevBits := uint64(0)
	for i := range t.Apps {
		a := &t.Apps[i]
		apps = ref(apps, a.ID)
		bits := math.Float64bits(a.SubmitTime)
		apps = binary.AppendVarint(apps, int64(bits-prevBits))
		prevBits = bits
		apps = ref(apps, a.Model)
		if p := a.Placement; p != nil {
			apps = append(apps, appFlagPlacement)
			apps = ref(apps, p.Profile)
			apps = binary.AppendUvarint(apps, uint64(p.MinGPUsPerMachine))
			apps = binary.AppendUvarint(apps, uint64(p.MaxMachines))
			apps = ref(apps, p.Domain)
			apps = ref(apps, p.Flavor)
		} else {
			apps = append(apps, 0)
		}
		apps = binary.AppendUvarint(apps, uint64(len(a.Jobs)))
		for _, j := range a.Jobs {
			apps = binary.LittleEndian.AppendUint64(apps, math.Float64bits(j.TotalWork))
			apps = binary.AppendUvarint(apps, uint64(j.GangSize))
			apps = binary.AppendVarint(apps, int64(j.MaxParallelism))
			apps = binary.AppendUvarint(apps, uint64(j.MinGPUsPerMachine))
			apps = binary.AppendUvarint(apps, uint64(j.MaxMachines))
			apps = binary.AppendVarint(apps, int64(j.TotalIterations))
			apps = binary.LittleEndian.AppendUint64(apps, math.Float64bits(j.Quality))
			apps = binary.AppendVarint(apps, j.Seed)
		}
	}

	strtab := append(binary.AppendUvarint(nil, uint64(len(index))), strs...)
	out := binary.AppendUvarint([]byte(binaryMagic), BinaryVersion)
	out = appendSection(out, secStrings, strtab)
	out = appendSection(out, secApps, apps)
	out = appendSection(out, secEnd, nil)
	if _, err := w.Write(out); err != nil {
		return fmt.Errorf("trace: writing binary trace: %w", err)
	}
	return nil
}

// appendSection appends one framed section: its identifier, the payload
// length and the payload.
func appendSection(b []byte, id byte, payload []byte) []byte {
	b = binary.AppendUvarint(append(b, id), uint64(len(payload)))
	return append(b, payload...)
}

// BinaryDecoder streams apps out of a v3 binary trace without materialising
// the whole trace: the string table loads once up front, and each Next call
// decodes one app into an internal buffer that is reused across calls. In
// steady state (after the first few apps have sized the buffers) Next
// performs zero heap allocations.
//
// The *AppSpec returned by Next — including its Jobs slice and Placement
// block — is only valid until the next Next call; callers retaining an app
// must copy it (ReadBinary does).
//
// Every read helper returns its value and records the first failure in err;
// once err is set they return zero values without touching the stream. So a
// record decodes in straight-line code and is checked once, at its end.
type BinaryDecoder struct {
	br     *bufio.Reader
	table  []string
	name   string
	remain int    // apps not yet decoded
	left   int64  // bytes left in the current frame
	offset int64  // bytes consumed from the stream, for error positions
	prev   uint64 // previous app's SubmitTime bits (delta base)

	app     AppSpec
	jobs    []JobSpec
	block   PlacementSpec
	scratch [8]byte
	err     error // sticky decode error: the first failure
}

// NewBinaryDecoder reads the container header, the string table and the apps
// section header from r, returning a decoder ready to stream apps. Corrupt
// input fails with *CorruptTraceError.
func NewBinaryDecoder(r io.Reader) (*BinaryDecoder, error) {
	d := &BinaryDecoder{br: bufio.NewReader(r)}
	if d.readHeader(); d.err != nil {
		return nil, d.err
	}
	return d, nil
}

// Name returns the trace name recorded in the container.
func (d *BinaryDecoder) Name() string { return d.name }

// Remaining returns how many apps Next has not yet yielded.
func (d *BinaryDecoder) Remaining() int { return d.remain }

// Next returns the next app in the trace, or io.EOF after the last one (at
// which point the container's end marker has been verified). The returned
// spec is reused by the following Next call.
func (d *BinaryDecoder) Next() (*AppSpec, error) {
	if d.err != nil {
		return nil, d.err
	}
	if d.remain == 0 {
		if d.left != 0 {
			d.corrupt("%d trailing bytes in apps section", d.left)
		}
		// The end marker: section 0x00 with an empty payload.
		d.left = 1 + binary.MaxVarintLen64
		if id := d.readByte(); id != secEnd {
			d.corrupt("expected end marker, found section 0x%02x", id)
		}
		if length := d.uvarint(); length != 0 {
			d.corrupt("end marker declares %d payload bytes", length)
		}
		if d.err == nil {
			d.err = io.EOF
		}
		return nil, d.err
	}
	d.remain--

	id := d.str(d.uvarint())
	d.prev += uint64(d.varint())
	model := d.str(d.uvarint())
	flags := d.readByte()
	if flags&^appFlagPlacement != 0 {
		d.corrupt("unknown app flag bits 0x%02x", flags&^appFlagPlacement)
	}
	d.app = AppSpec{ID: id, SubmitTime: math.Float64frombits(d.prev), Model: model}
	if flags&appFlagPlacement != 0 {
		d.block = PlacementSpec{
			Profile:           d.str(d.uvarint()),
			MinGPUsPerMachine: d.uvarintInt("placement min_gpus_per_machine"),
			MaxMachines:       d.uvarintInt("placement max_machines"),
			Domain:            d.str(d.uvarint()),
			Flavor:            d.str(d.uvarint()),
		}
		d.app.Placement = &d.block
	}
	jobCount := d.uvarint()
	if jobCount > uint64(d.left)/minJobEncodedBytes {
		d.corrupt("job count %d exceeds the %d bytes left in the apps section", jobCount, d.left)
	}
	d.jobs = d.jobs[:0]
	for i := uint64(0); i < jobCount && d.err == nil; i++ {
		d.jobs = append(d.jobs, JobSpec{
			TotalWork:         d.fixed64(),
			GangSize:          d.uvarintInt("gang_size"),
			MaxParallelism:    d.varintInt("max_parallelism"),
			MinGPUsPerMachine: d.uvarintInt("min_gpus_per_machine"),
			MaxMachines:       d.uvarintInt("max_machines"),
			TotalIterations:   d.varintInt("total_iterations"),
			Quality:           d.fixed64(),
			Seed:              d.varint(),
		})
	}
	if d.err != nil {
		return nil, d.err
	}
	d.app.Jobs = d.jobs
	return &d.app, nil
}

// readHeader consumes the magic, container version, string table and the
// apps-section header.
func (d *BinaryDecoder) readHeader() {
	d.left = int64(len(binaryMagic)) + binary.MaxVarintLen64 // the magic and the version
	magic := d.scratch[:len(binaryMagic)]
	if d.readFull(magic); d.err == nil && string(magic) != binaryMagic {
		d.corrupt("bad magic %q (want %q)", magic, binaryMagic)
	}
	// The container version frames everything after it; an unknown version is
	// a negotiation failure, not corruption.
	if version := d.uvarint(); d.err == nil && version != BinaryVersion {
		d.err = &UnsupportedVersionError{Version: int(version)}
	}

	d.section(secStrings, "string table")
	count := d.uvarint()
	// Every entry takes at least its one-byte length prefix.
	if count > uint64(d.left) {
		d.corrupt("string table claims %d entries in %d bytes", count, d.left)
	}
	// The declared section length is attacker-controlled and unverifiable in
	// a streaming read, so the count check above does not bound memory by
	// itself: allocations below must grow only as real input bytes arrive
	// (lazy table growth, chunked string reads), letting a lying frame die
	// of truncation instead of a giant up-front make.
	d.table = make([]string, 0, min(count, 1024))
	var chunk []byte
	for i := uint64(0); i < count && d.err == nil; i++ {
		slen := d.uvarint()
		if slen > uint64(d.left) {
			d.corrupt("string %d length %d exceeds the %d bytes left in the table", i, slen, d.left)
		}
		const maxChunk = 64 << 10
		var buf bytes.Buffer
		for n := slen; n > 0 && d.err == nil; {
			c := min(n, maxChunk)
			if uint64(len(chunk)) < c {
				chunk = make([]byte, c)
			}
			d.readFull(chunk[:c])
			buf.Write(chunk[:c])
			n -= c
		}
		if !utf8.Valid(buf.Bytes()) {
			// The JSON encoding cannot represent invalid UTF-8, so accepting
			// it here would break the cross-format round-trip guarantee.
			d.corrupt("string %d is not valid UTF-8", i)
		}
		d.table = append(d.table, buf.String())
	}
	if d.left != 0 {
		d.corrupt("%d trailing bytes in string table", d.left)
	}

	// Apps section header: id, frame length, trace-name index, app count.
	d.section(secApps, "apps")
	d.name = d.str(d.uvarint())
	count = d.uvarint()
	// The smallest app record (id, delta, model, flags, job count) is 5
	// bytes; a count the frame cannot back is corrupt.
	if count > uint64(d.left)/5 {
		d.corrupt("app count %d exceeds the %d-byte apps section", count, d.left)
	}
	d.remain = int(count)
}

// section consumes one section header and checks its identifier, setting
// the frame bound for subsequent reads.
func (d *BinaryDecoder) section(want byte, name string) {
	d.left = 1 + binary.MaxVarintLen64 // bound the header reads
	if id := d.readByte(); id != want {
		d.corrupt("expected %s section (0x%02x), found 0x%02x", name, want, id)
	}
	length := d.uvarint()
	if length > math.MaxInt64 {
		d.corrupt("%s section length %d overflows", name, length)
	}
	d.left = int64(length)
}

// str resolves a string-table index, range-checked.
func (d *BinaryDecoder) str(idx uint64) string {
	if idx >= uint64(len(d.table)) {
		d.corrupt("string index %d out of range (table has %d entries)", idx, len(d.table))
		return ""
	}
	return d.table[idx]
}

// readByte reads one byte inside the current frame.
func (d *BinaryDecoder) readByte() byte {
	if d.err != nil {
		return 0
	}
	if d.left <= 0 {
		d.corrupt("read past the end of the section frame")
		return 0
	}
	b, err := d.br.ReadByte()
	if err != nil {
		d.ioErr(err)
		return 0
	}
	d.left--
	d.offset++
	return b
}

// readFull fills p from inside the current frame.
func (d *BinaryDecoder) readFull(p []byte) {
	if d.err != nil {
		return
	}
	if int64(len(p)) > d.left {
		d.corrupt("read of %d bytes past the end of the section frame", len(p))
		return
	}
	n, err := io.ReadFull(d.br, p)
	d.left -= int64(n)
	d.offset += int64(n)
	if err != nil {
		d.ioErr(err)
	}
}

// uvarint reads an unsigned varint, rejecting 64-bit overflow.
func (d *BinaryDecoder) uvarint() uint64 {
	var x uint64
	for i, s := 0, uint(0); i < binary.MaxVarintLen64; i, s = i+1, s+7 {
		b := d.readByte()
		if d.err != nil {
			return 0
		}
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break
			}
			return x | uint64(b)<<s
		}
		x |= uint64(b&0x7f) << s
	}
	d.corrupt("varint overflows 64 bits")
	return 0
}

// varint reads a zigzag-encoded signed varint.
func (d *BinaryDecoder) varint() int64 {
	ux := d.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x
}

// uvarintInt reads an unsigned varint that must fit an int.
func (d *BinaryDecoder) uvarintInt(field string) int {
	v := d.uvarint()
	if v > math.MaxInt {
		d.corrupt("%s value %d overflows int", field, v)
		return 0
	}
	return int(v)
}

// varintInt reads a signed varint that must fit an int.
func (d *BinaryDecoder) varintInt(field string) int {
	v := d.varint()
	if v > math.MaxInt || v < math.MinInt {
		d.corrupt("%s value %d overflows int", field, v)
		return 0
	}
	return int(v)
}

// fixed64 reads a little-endian 8-byte float64.
func (d *BinaryDecoder) fixed64() float64 {
	if d.readFull(d.scratch[:8]); d.err != nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(d.scratch[:8]))
}

// corrupt records a typed corruption error at the current stream position,
// unless an earlier failure is already recorded.
func (d *BinaryDecoder) corrupt(format string, args ...any) {
	if d.err == nil {
		d.err = &CorruptTraceError{Offset: d.offset, Reason: fmt.Sprintf(format, args...)}
	}
}

// ioErr records a read failure: EOF inside a structure is truncation
// (corruption); anything else is a real I/O error and is surfaced as such.
func (d *BinaryDecoder) ioErr(err error) {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		d.corrupt("truncated input")
	} else {
		d.err = fmt.Errorf("trace: reading binary trace: %w", err)
	}
}

// ReadBinary parses and validates a complete trace from a v3 binary stream.
// Like Read, the result carries the current format version, so Write on it
// emits valid v2 JSON — the two encodings are interchangeable representations
// of the same trace.
func ReadBinary(r io.Reader) (Trace, error) {
	d, err := NewBinaryDecoder(r)
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

// SaveBinary writes the trace to a file in the binary container format.
// Load auto-detects the encoding, so binary and JSON trace files are
// interchangeable everywhere a path is accepted.
func SaveBinary(path string, t Trace) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	if err := t.WriteBinary(f); err != nil {
		return fmt.Errorf("trace: writing %s: %w", path, err)
	}
	return f.Close()
}
