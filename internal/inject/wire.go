// Wire codec for the distributed-campaign protocol. Lease requests and
// replies, span submissions and their acks travel between coordinator and
// worker nodes as small versioned binary messages:
//
//	magic "lkdw" | uvarint wireVersion | kind byte
//	<kind-specific body>
//
// Strings are uvarint-length-prefixed; record streams intern the kernel
// names into a per-message table and delta-encode cycles (the plan is
// kernel-major and cycle-local, so spans compress well). Decoding is
// fuzz-hardened: every count and length is validated against what the
// remaining input could possibly hold before anything is allocated, so
// arbitrary bytes — a confused worker, a truncated connection, a hostile
// peer — produce a typed error, never a panic or an attacker-sized
// allocation. Units and fine-grained unit names are not shipped at all:
// they are derivable from the flop index, and recomputing them on decode
// keeps a submission from ever disagreeing with the coordinator's
// rendering.
package inject

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"time"

	"lockstep/internal/cpu"
	"lockstep/internal/dataset"
	"lockstep/internal/lockstep"
)

// wireMagic opens every distributed-campaign message.
const wireMagic = "lkdw"

// wireVersion is the protocol generation; bumped on any layout change so
// mixed-build clusters fail closed instead of misparsing.
const wireVersion = 1

// Message kind bytes.
const (
	wireLeaseRequest = 1
	wireLeaseReply   = 2
	wireSpanSubmit   = 3
	wireSpanReply    = 4
)

// Decoder caps: bound what a corrupt or hostile header can make the
// decoder allocate. maxLeaseSpan (distrib.go) bounds record counts.
const (
	maxWireString = 256     // worker names, digests
	maxWireFP     = 1 << 16 // fingerprint JSON blob
)

// WireError reports a distributed-campaign message that cannot be
// trusted: truncated, corrupt, wrong version, or carrying out-of-range
// values.
type WireError struct {
	Reason string
}

func (e *WireError) Error() string {
	return "inject: bad wire message: " + e.Reason
}

// LeaseRequest asks the coordinator for a span lease.
type LeaseRequest struct {
	Worker string // stable worker identity (affinity + per-worker stats)
	Digest string // campaign fingerprint digest the worker was joined with
	Want   int    // preferred span length; 0 = coordinator default
}

// LeaseReply answers a LeaseRequest. FP, Total and Done are always set;
// LeaseID/Span/TTL only when Status is LeaseGranted, Retry only when
// LeaseWait.
type LeaseReply struct {
	Status  LeaseStatus
	Total   int
	Done    int
	FP      Fingerprint // the schedule; workers rebuild the Config from it
	LeaseID uint64
	Span    Span
	TTL     time.Duration
	Retry   time.Duration
}

// SpanSubmit carries one completed span's records back to the
// coordinator.
type SpanSubmit struct {
	Worker  string
	Digest  string
	LeaseID uint64
	Span    Span
	// BusyUS is the worker's wall-clock microseconds spent executing the
	// span (golden builds included) — the coordinator's per-worker
	// throughput gauges are computed from it.
	BusyUS        int64
	Pruned        int
	OracleChecked int
	Records       []dataset.Record // exactly Span.Hi-Span.Lo, plan order
}

// SpanReply acknowledges a SpanSubmit.
type SpanReply struct {
	Duplicate bool // span was already covered; records dropped, not an error
	Done      int  // campaign-wide merged experiments
	Total     int
}

// wireReader is a bounds-checked cursor over an encoded message.
type wireReader struct {
	b   []byte
	err error
}

func (r *wireReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = &WireError{Reason: fmt.Sprintf(format, args...)}
	}
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("truncated or oversized uvarint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) zigzag() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail("truncated or oversized varint")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *wireReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if len(r.b) == 0 {
		r.fail("truncated message")
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

// count reads a uvarint element count and validates it against a hard cap
// and against the bytes the rest of the input could possibly hold
// (minBytes per element), so a corrupt count can never drive a large
// allocation.
func (r *wireReader) count(what string, max, minBytes int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(max) {
		r.fail("%s count %d exceeds cap %d", what, v, max)
		return 0
	}
	if minBytes > 0 && v > uint64(len(r.b)/minBytes) {
		r.fail("%s count %d exceeds remaining input", what, v)
		return 0
	}
	return int(v)
}

// str reads a uvarint-length-prefixed string capped at max bytes.
func (r *wireReader) str(what string, max int) string {
	n := r.count(what, max, 1)
	if r.err != nil {
		return ""
	}
	if n > len(r.b) {
		r.fail("%s length %d exceeds remaining input", what, n)
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// intv narrows a uvarint into a non-negative int with an inclusive cap.
func (r *wireReader) intv(what string, max int) int {
	v := r.uvarint()
	if r.err != nil {
		return 0
	}
	if v > uint64(max) {
		r.fail("%s %d out of range (max %d)", what, v, max)
		return 0
	}
	return int(v)
}

// header checks magic + version and consumes the kind byte.
func (r *wireReader) header(wantKind byte) {
	if len(r.b) < len(wireMagic) || string(r.b[:len(wireMagic)]) != wireMagic {
		r.fail("not a lockstep wire message")
		return
	}
	r.b = r.b[len(wireMagic):]
	if v := r.uvarint(); r.err == nil && v != wireVersion {
		r.fail("unsupported wire version %d (this build speaks %d)", v, wireVersion)
		return
	}
	if k := r.byte(); r.err == nil && k != wantKind {
		r.fail("message kind %d, want %d", k, wantKind)
	}
}

// done demands the cursor consumed the whole message: trailing garbage is
// a framing bug, not padding.
func (r *wireReader) done() error {
	if r.err == nil && len(r.b) != 0 {
		r.fail("%d trailing bytes", len(r.b))
	}
	return r.err
}

// marshalFingerprint renders the fingerprint as the canonical JSON its
// digest is computed over.
func marshalFingerprint(f Fingerprint) ([]byte, error) {
	return json.Marshal(f)
}

func unmarshalFingerprint(data []byte, f *Fingerprint) error {
	return json.Unmarshal(data, f)
}

func appendWireHeader(b []byte, kind byte) []byte {
	b = append(b, wireMagic...)
	b = binary.AppendUvarint(b, wireVersion)
	return append(b, kind)
}

func appendWireString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// Encode serializes the request. Worker and Digest longer than the wire
// cap are refused at decode time; keep names short.
func (m *LeaseRequest) Encode() []byte {
	b := appendWireHeader(nil, wireLeaseRequest)
	b = appendWireString(b, m.Worker)
	b = appendWireString(b, m.Digest)
	b = binary.AppendUvarint(b, uint64(m.Want))
	return b
}

// DecodeLeaseRequest parses a LeaseRequest, rejecting malformed input
// with a *WireError.
func DecodeLeaseRequest(data []byte) (*LeaseRequest, error) {
	r := &wireReader{b: data}
	r.header(wireLeaseRequest)
	m := &LeaseRequest{
		Worker: r.str("worker name", maxWireString),
		Digest: r.str("digest", maxWireString),
		Want:   r.intv("want", maxLeaseSpan),
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// Encode serializes the reply. The fingerprint travels as its canonical
// JSON — the same bytes its digest is computed over — so a worker can
// verify digest-vs-fingerprint consistency without a second encoding.
func (m *LeaseReply) Encode() ([]byte, error) {
	fp, err := marshalFingerprint(m.FP)
	if err != nil {
		return nil, err
	}
	b := appendWireHeader(nil, wireLeaseReply)
	b = append(b, byte(m.Status))
	b = binary.AppendUvarint(b, uint64(m.Total))
	b = binary.AppendUvarint(b, uint64(m.Done))
	b = binary.AppendUvarint(b, uint64(len(fp)))
	b = append(b, fp...)
	b = binary.AppendUvarint(b, m.LeaseID)
	b = binary.AppendUvarint(b, uint64(m.Span.Lo))
	b = binary.AppendUvarint(b, uint64(m.Span.Hi))
	b = binary.AppendUvarint(b, uint64(m.TTL/time.Millisecond))
	b = binary.AppendUvarint(b, uint64(m.Retry/time.Millisecond))
	return b, nil
}

// DecodeLeaseReply parses a LeaseReply, rejecting malformed input with a
// *WireError.
func DecodeLeaseReply(data []byte) (*LeaseReply, error) {
	r := &wireReader{b: data}
	r.header(wireLeaseReply)
	m := &LeaseReply{Status: LeaseStatus(r.byte())}
	if r.err == nil {
		switch m.Status {
		case LeaseGranted, LeaseWait, LeaseDone:
		default:
			r.fail("unknown lease status %d", int(m.Status))
		}
	}
	m.Total = r.intv("total", 1<<31-1)
	m.Done = r.intv("done", 1<<31-1)
	fpLen := r.count("fingerprint", maxWireFP, 1)
	if r.err == nil {
		if fpLen > len(r.b) {
			r.fail("fingerprint length %d exceeds remaining input", fpLen)
		} else {
			if err := unmarshalFingerprint(r.b[:fpLen], &m.FP); err != nil {
				r.fail("fingerprint: %v", err)
			}
			r.b = r.b[fpLen:]
		}
	}
	m.LeaseID = r.uvarint()
	m.Span.Lo = r.intv("span lo", 1<<31-1)
	m.Span.Hi = r.intv("span hi", 1<<31-1)
	m.TTL = time.Duration(r.intv("ttl ms", 1<<31-1)) * time.Millisecond
	m.Retry = time.Duration(r.intv("retry ms", 1<<31-1)) * time.Millisecond
	if r.err == nil {
		if m.Done > m.Total {
			r.fail("done %d exceeds total %d", m.Done, m.Total)
		}
		if m.Status == LeaseGranted {
			sp := m.Span
			if sp.Lo >= sp.Hi || sp.Hi > m.Total || sp.Hi-sp.Lo > maxLeaseSpan {
				r.fail("granted span [%d,%d) invalid for total %d", sp.Lo, sp.Hi, m.Total)
			}
		}
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// Encode serializes the submission. Records must be exactly the span's
// length; Encode panics otherwise (the caller built an inconsistent
// message — this is a programming error, not an input error).
func (m *SpanSubmit) Encode() []byte {
	if len(m.Records) != m.Span.Hi-m.Span.Lo {
		panic(fmt.Sprintf("inject: SpanSubmit span [%d,%d) with %d records", m.Span.Lo, m.Span.Hi, len(m.Records)))
	}
	b := appendWireHeader(nil, wireSpanSubmit)
	b = appendWireString(b, m.Worker)
	b = appendWireString(b, m.Digest)
	b = binary.AppendUvarint(b, m.LeaseID)
	b = binary.AppendUvarint(b, uint64(m.Span.Lo))
	b = binary.AppendUvarint(b, uint64(m.Span.Hi))
	b = binary.AppendUvarint(b, uint64(m.BusyUS))
	b = binary.AppendUvarint(b, uint64(m.Pruned))
	b = binary.AppendUvarint(b, uint64(m.OracleChecked))

	// Kernel name intern table: spans are kernel-major, so this is
	// usually one entry.
	var kernels []string
	kidx := map[string]int{}
	for i := range m.Records {
		if _, ok := kidx[m.Records[i].Kernel]; !ok {
			kidx[m.Records[i].Kernel] = len(kernels)
			kernels = append(kernels, m.Records[i].Kernel)
		}
	}
	b = binary.AppendUvarint(b, uint64(len(kernels)))
	for _, k := range kernels {
		b = appendWireString(b, k)
	}

	var prevInject, prevDetect int64
	for i := range m.Records {
		rec := &m.Records[i]
		b = binary.AppendUvarint(b, uint64(kidx[rec.Kernel]))
		b = binary.AppendUvarint(b, uint64(rec.Flop))
		b = binary.AppendUvarint(b, uint64(rec.Kind))
		b = binary.AppendVarint(b, int64(rec.InjectCycle)-prevInject)
		b = binary.AppendVarint(b, int64(rec.DetectCycle)-prevDetect)
		prevInject, prevDetect = int64(rec.InjectCycle), int64(rec.DetectCycle)
		var flags byte
		if rec.Detected {
			flags |= 1
		}
		if rec.Converged {
			flags |= 2
		}
		if rec.Failed {
			flags |= 4
		}
		b = append(b, flags)
		b = binary.AppendUvarint(b, rec.DSR)
	}
	return b
}

// DecodeSpanSubmit parses a SpanSubmit, rejecting malformed input with a
// *WireError. Record Unit/Fine columns are recomputed from the flop
// index, and flop/kind indices are validated against this build's CPU
// model, so a decoded record is always renderable.
func DecodeSpanSubmit(data []byte) (*SpanSubmit, error) {
	r := &wireReader{b: data}
	r.header(wireSpanSubmit)
	m := &SpanSubmit{
		Worker:        r.str("worker name", maxWireString),
		Digest:        r.str("digest", maxWireString),
		LeaseID:       r.uvarint(),
		Span:          Span{Lo: r.intv("span lo", 1<<31-1), Hi: r.intv("span hi", 1<<31-1)},
		BusyUS:        int64(r.uvarint()),
		Pruned:        r.intv("pruned", maxLeaseSpan),
		OracleChecked: r.intv("oracle checked", maxLeaseSpan),
	}
	if r.err == nil && (m.Span.Lo >= m.Span.Hi || m.Span.Hi-m.Span.Lo > maxLeaseSpan) {
		r.fail("span [%d,%d) invalid", m.Span.Lo, m.Span.Hi)
	}
	nk := r.count("kernel table", 64, 1)
	kernels := make([]string, 0, nk)
	for i := 0; i < nk && r.err == nil; i++ {
		kernels = append(kernels, r.str("kernel name", maxWireString))
	}
	if r.err != nil {
		return nil, r.err
	}
	// 7 = minimum encoded record: kernel idx, flop, kind, two cycle
	// deltas, flags, DSR — one byte each.
	want := m.Span.Hi - m.Span.Lo
	if want > len(r.b)/7 {
		r.fail("span of %d records exceeds remaining input", want)
		return nil, r.err
	}
	if want > 0 && nk == 0 {
		r.fail("records without a kernel table")
		return nil, r.err
	}
	m.Records = make([]dataset.Record, 0, want)
	var prevInject, prevDetect int64
	for i := 0; i < want; i++ {
		ki := r.intv("kernel index", len(kernels)-1)
		flop := r.intv("flop", cpu.NumFlops()-1)
		kind := r.intv("kind", int(lockstep.NumFaultKinds)-1)
		injectCycle := prevInject + r.zigzag()
		detectCycle := prevDetect + r.zigzag()
		flags := r.byte()
		dsr := r.uvarint()
		if r.err != nil {
			return nil, r.err
		}
		if flags&^byte(7) != 0 {
			r.fail("unknown record flags %#x", flags)
			return nil, r.err
		}
		const maxCycle = 1 << 31 // far beyond any campaign horizon
		if injectCycle < 0 || injectCycle > maxCycle || detectCycle < 0 || detectCycle > maxCycle {
			r.fail("record cycle out of range (inject %d, detect %d)", injectCycle, detectCycle)
			return nil, r.err
		}
		prevInject, prevDetect = injectCycle, detectCycle
		m.Records = append(m.Records, dataset.Record{
			Kernel:      kernels[ki],
			Flop:        flop,
			Unit:        cpu.FlopUnit(flop),
			Fine:        cpu.FlopFine(flop),
			Kind:        lockstep.FaultKind(kind),
			InjectCycle: int(injectCycle),
			Detected:    flags&1 != 0,
			DetectCycle: int(detectCycle),
			DSR:         dsr,
			Converged:   flags&2 != 0,
			Failed:      flags&4 != 0,
		})
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}

// Encode serializes the ack.
func (m *SpanReply) Encode() []byte {
	b := appendWireHeader(nil, wireSpanReply)
	var flags byte
	if m.Duplicate {
		flags |= 1
	}
	b = append(b, flags)
	b = binary.AppendUvarint(b, uint64(m.Done))
	b = binary.AppendUvarint(b, uint64(m.Total))
	return b
}

// DecodeSpanReply parses a SpanReply, rejecting malformed input with a
// *WireError.
func DecodeSpanReply(data []byte) (*SpanReply, error) {
	r := &wireReader{b: data}
	r.header(wireSpanReply)
	flags := r.byte()
	m := &SpanReply{
		Duplicate: flags&1 != 0,
		Done:      r.intv("done", 1<<31-1),
		Total:     r.intv("total", 1<<31-1),
	}
	if r.err == nil && flags&^byte(1) != 0 {
		r.fail("unknown reply flags %#x", flags)
	}
	if r.err == nil && m.Done > m.Total {
		r.fail("done %d exceeds total %d", m.Done, m.Total)
	}
	if err := r.done(); err != nil {
		return nil, err
	}
	return m, nil
}
