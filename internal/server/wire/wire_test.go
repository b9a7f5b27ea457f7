package wire

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"

	"fasp/internal/btree"
	"fasp/internal/shard"
	"fasp/internal/slotted"
)

// readOne decodes a single frame from raw.
func readOne(t *testing.T, raw []byte) (byte, []byte) {
	t.Helper()
	br := bufio.NewReader(bytes.NewReader(raw))
	op, payload, _, err := ReadFrame(br, 0, nil)
	if err != nil {
		t.Fatalf("ReadFrame: %v", err)
	}
	return op, payload
}

func TestRequestRoundTrip(t *testing.T) {
	var req Request

	op, payload := readOne(t, AppendGet(nil, []byte("alpha")))
	if err := ParseRequest(op, payload, &req); err != nil {
		t.Fatalf("get: %v", err)
	}
	if req.Op != OpGet || string(req.Key) != "alpha" {
		t.Fatalf("get round trip: %+v", req)
	}

	op, payload = readOne(t, AppendPut(nil, []byte("k"), []byte("value-1")))
	if err := ParseRequest(op, payload, &req); err != nil {
		t.Fatalf("put: %v", err)
	}
	if req.Op != OpPut || string(req.Key) != "k" || string(req.Val) != "value-1" {
		t.Fatalf("put round trip: %+v", req)
	}

	// Empty value is legal and distinct from absent.
	op, payload = readOne(t, AppendPut(nil, []byte("k"), nil))
	if err := ParseRequest(op, payload, &req); err != nil {
		t.Fatalf("put empty: %v", err)
	}
	if len(req.Val) != 0 {
		t.Fatalf("put empty val: %q", req.Val)
	}

	op, payload = readOne(t, AppendDel(nil, []byte("gone")))
	if err := ParseRequest(op, payload, &req); err != nil {
		t.Fatalf("del: %v", err)
	}
	if req.Op != OpDel || string(req.Key) != "gone" {
		t.Fatalf("del round trip: %+v", req)
	}

	ops := []BatchOp{
		{Kind: KindPut, Key: []byte("a"), Val: []byte("1")},
		{Kind: KindInsert, Key: []byte("b"), Val: []byte("2")},
		{Kind: KindUpdate, Key: []byte("c"), Val: []byte("3")},
		{Kind: KindDelete, Key: []byte("d")},
	}
	op, payload = readOne(t, AppendBatch(nil, ops))
	if err := ParseRequest(op, payload, &req); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(req.Ops) != len(ops) {
		t.Fatalf("batch len = %d, want %d", len(req.Ops), len(ops))
	}
	for i := range ops {
		if req.Ops[i].Kind != ops[i].Kind ||
			!bytes.Equal(req.Ops[i].Key, ops[i].Key) ||
			!bytes.Equal(req.Ops[i].Val, ops[i].Val) {
			t.Fatalf("batch op %d: got %+v want %+v", i, req.Ops[i], ops[i])
		}
	}

	op, payload = readOne(t, AppendScan(nil, []byte("lo"), []byte("hi"), true, false, 77))
	if err := ParseRequest(op, payload, &req); err != nil {
		t.Fatalf("scan: %v", err)
	}
	if !req.HasLo || !req.HasHi || !req.Rev || req.ExclHi || req.Limit != 77 ||
		string(req.Lo) != "lo" || string(req.Hi) != "hi" {
		t.Fatalf("scan round trip: %+v", req)
	}

	op, payload = readOne(t, AppendScan(nil, nil, nil, false, false, 0))
	if err := ParseRequest(op, payload, &req); err != nil {
		t.Fatalf("open scan: %v", err)
	}
	if req.HasLo || req.HasHi || req.Rev || req.ExclHi || req.Limit != 0 {
		t.Fatalf("open scan round trip: %+v", req)
	}

	// Exclusive hi (reverse-resume paging).
	op, payload = readOne(t, AppendScan(nil, nil, []byte("hi"), true, true, 0))
	if err := ParseRequest(op, payload, &req); err != nil {
		t.Fatalf("excl-hi scan: %v", err)
	}
	if req.HasLo || !req.HasHi || !req.Rev || !req.ExclHi || string(req.Hi) != "hi" {
		t.Fatalf("excl-hi scan round trip: %+v", req)
	}

	// exclHi without a hi bound must not be encoded…
	op, payload = readOne(t, AppendScan(nil, nil, nil, false, true, 0))
	if err := ParseRequest(op, payload, &req); err != nil || req.ExclHi {
		t.Fatalf("exclHi without hi: err=%v req=%+v", err, req)
	}
	// …and a hand-forged frame carrying it is malformed.
	forged := []byte{ScanExclHi, 0, 0, 0, 0} // flags, u32 limit
	if err := ParseRequest(OpScan, forged, &req); !errors.Is(err, ErrMalformed) {
		t.Fatalf("forged exclHi-without-hi: %v", err)
	}

	for _, empty := range []byte{OpCount, OpStats, OpPing} {
		op, payload = readOne(t, AppendEmptyReq(nil, empty))
		if err := ParseRequest(op, payload, &req); err != nil {
			t.Fatalf("%s: %v", OpName(empty), err)
		}
		if req.Op != empty {
			t.Fatalf("%s round trip: %+v", OpName(empty), req)
		}
	}
}

func TestSeqRequestRoundTrip(t *testing.T) {
	var req Request

	op, payload := readOne(t, AppendHello(nil, 0xdeadbeefcafe))
	if err := ParseRequest(op, payload, &req); err != nil {
		t.Fatalf("hello: %v", err)
	}
	if req.Op != OpHello || req.SID != 0xdeadbeefcafe {
		t.Fatalf("hello round trip: %+v", req)
	}

	op, payload = readOne(t, AppendPutSeq(nil, 7, []byte("k"), []byte("v")))
	if err := ParseRequest(op, payload, &req); err != nil {
		t.Fatalf("put_seq: %v", err)
	}
	if req.Op != OpPutSeq || !req.HasSeq || req.Seq != 7 ||
		string(req.Key) != "k" || string(req.Val) != "v" {
		t.Fatalf("put_seq round trip: %+v", req)
	}

	op, payload = readOne(t, AppendDelSeq(nil, 8, []byte("gone")))
	if err := ParseRequest(op, payload, &req); err != nil {
		t.Fatalf("del_seq: %v", err)
	}
	if req.Op != OpDelSeq || !req.HasSeq || req.Seq != 8 || string(req.Key) != "gone" {
		t.Fatalf("del_seq round trip: %+v", req)
	}

	ops := []BatchOp{
		{Kind: KindInsert, Key: []byte("a"), Val: []byte("1")},
		{Kind: KindDelete, Key: []byte("b")},
	}
	op, payload = readOne(t, AppendBatchSeq(nil, 9, ops))
	if err := ParseRequest(op, payload, &req); err != nil {
		t.Fatalf("batch_seq: %v", err)
	}
	if req.Op != OpBatchSeq || !req.HasSeq || req.Seq != 9 || len(req.Ops) != 2 {
		t.Fatalf("batch_seq round trip: %+v", req)
	}

	// A plain request must not report a sequence token.
	op, payload = readOne(t, AppendPut(nil, []byte("k"), []byte("v")))
	if err := ParseRequest(op, payload, &req); err != nil || req.HasSeq {
		t.Fatalf("plain put HasSeq: err=%v req=%+v", err, req)
	}

	// Truncated seq prefix is malformed, not a panic.
	if err := ParseRequest(OpPutSeq, []byte{1, 2, 3}, &req); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short put_seq: %v", err)
	}
	if err := ParseRequest(OpHello, nil, &req); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short hello: %v", err)
	}

	if BaseOp(OpPutSeq) != OpPut || BaseOp(OpDelSeq) != OpDel ||
		BaseOp(OpBatchSeq) != OpBatch || BaseOp(OpGet) != OpGet || BaseOp(OpHello) != OpHello {
		t.Fatal("BaseOp mapping")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	code, payload := readOne(t, AppendOK(nil))
	if Code(code) != CodeOK || len(payload) != 0 {
		t.Fatalf("ok: code=%d payload=%q", code, payload)
	}

	code, payload = readOne(t, AppendValue(nil, CodeOK, []byte("hit")))
	if Code(code) != CodeOK || string(payload) != "hit" {
		t.Fatalf("value: code=%d payload=%q", code, payload)
	}

	code, payload = readOne(t, AppendCount(nil, 123456789012345))
	if Code(code) != CodeOK {
		t.Fatalf("count code: %d", code)
	}
	n, err := ParseCount(payload)
	if err != nil || n != 123456789012345 {
		t.Fatalf("count: %d, %v", n, err)
	}
	if _, err := ParseCount(payload[:5]); !errors.Is(err, ErrMalformed) {
		t.Fatalf("short count err: %v", err)
	}

	code, payload = readOne(t, AppendErr(nil, CodeUnavail, 3, 40, "writer faulted"))
	if Code(code) != CodeUnavail {
		t.Fatalf("err code: %d", code)
	}
	sh, retryMS, msg := ParseErr(payload)
	if sh != 3 || retryMS != 40 || msg != "writer faulted" {
		t.Fatalf("err payload: shard=%d retry=%d msg=%q", sh, retryMS, msg)
	}
	code, payload = readOne(t, AppendErr(nil, CodeBusy, -1, 0, "shed"))
	sh, retryMS, _ = ParseErr(payload)
	if sh != -1 || retryMS != 0 {
		t.Fatalf("unpinned err: shard=%d retry=%d", sh, retryMS)
	}
	// A payload shorter than the 8-byte prefix is all message.
	short := []byte{0xff, 0xff, 0xff, 0xfe, 'x'}
	if sh, retryMS, msg = ParseErr(short); sh != -1 || retryMS != 0 || msg != string(short) {
		t.Fatalf("short err payload: shard=%d retry=%d msg=%q", sh, retryMS, msg)
	}

	in := []Code{CodeOK, CodeDup, CodeKeyAbsent, CodeOK}
	code, payload = readOne(t, AppendBatchReply(nil, in))
	if Code(code) != CodeOK {
		t.Fatalf("batch reply code: %d", code)
	}
	out, err := ParseBatchReply(payload, nil)
	if err != nil || len(out) != len(in) {
		t.Fatalf("batch reply: %v, %v", out, err)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("batch reply[%d] = %v, want %v", i, out[i], in[i])
		}
	}
	if _, err := ParseBatchReply(payload[:len(payload)-1], nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("torn batch reply err: %v", err)
	}

	var sw ScanReplyWriter
	sw.Begin(nil)
	sw.Pair([]byte("k1"), []byte("v1"))
	sw.Pair([]byte("k2"), []byte("v2"))
	code, payload = readOne(t, sw.End(true))
	if Code(code) != CodeOK {
		t.Fatalf("scan reply code: %d", code)
	}
	var got []string
	more, err := ParseScanReply(payload, func(k, v []byte) bool {
		got = append(got, string(k)+"="+string(v))
		return true
	})
	if err != nil || !more {
		t.Fatalf("scan reply: more=%v err=%v", more, err)
	}
	if len(got) != 2 || got[0] != "k1=v1" || got[1] != "k2=v2" {
		t.Fatalf("scan pairs: %v", got)
	}
}

func TestPipelinedStream(t *testing.T) {
	// Several frames back to back through one reader, reusing the buffer.
	var raw []byte
	raw = AppendGet(raw, []byte("a"))
	raw = AppendPut(raw, []byte("b"), []byte("vv"))
	raw = AppendEmptyReq(raw, OpPing)
	br := bufio.NewReader(bytes.NewReader(raw))
	var buf []byte
	var ops []byte
	for {
		op, _, nbuf, err := ReadFrame(br, 0, buf)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadFrame: %v", err)
		}
		buf = nbuf
		ops = append(ops, op)
	}
	if !bytes.Equal(ops, []byte{OpGet, OpPut, OpPing}) {
		t.Fatalf("stream ops: %v", ops)
	}
}

func TestPeekFrame(t *testing.T) {
	full := AppendPut(nil, []byte("key"), []byte("val"))
	// Feed the bytes one by one: PeekFrame must stay false (never block)
	// until the whole frame is buffered.
	r, w := io.Pipe()
	br := bufio.NewReader(r)
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Write(full)
		w.Close()
	}()
	// Force everything into the buffer, then check.
	if _, err := br.Peek(len(full)); err != nil {
		t.Fatalf("peek: %v", err)
	}
	ready, err := PeekFrame(br, 0)
	if err != nil || !ready {
		t.Fatalf("PeekFrame full = %v, %v", ready, err)
	}
	<-done

	// Partial frame: header present, body missing.
	br2 := bufio.NewReader(bytes.NewReader(full[:6]))
	br2.Peek(6)
	ready, err = PeekFrame(br2, 0)
	if err != nil || ready {
		t.Fatalf("PeekFrame partial = %v, %v", ready, err)
	}

	// Oversized header is reported before the body arrives.
	big := []byte{0xff, 0xff, 0xff, 0xff, OpGet}
	br3 := bufio.NewReader(bytes.NewReader(big))
	br3.Peek(5)
	if _, err = PeekFrame(br3, 1024); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("PeekFrame oversized err: %v", err)
	}
}

func TestDecoderRejects(t *testing.T) {
	read := func(raw []byte, max int) error {
		br := bufio.NewReader(bytes.NewReader(raw))
		_, _, _, err := ReadFrame(br, max, nil)
		return err
	}

	if err := read([]byte{0, 0, 0, 0}, 0); !errors.Is(err, ErrMalformed) {
		t.Fatalf("zero-length frame: %v", err)
	}
	if err := read([]byte{0xff, 0xff, 0xff, 0xff, 1}, 0); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("oversized frame: %v", err)
	}
	if err := read([]byte{0, 0}, 0); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn header: %v", err)
	}
	if err := read([]byte{0, 0, 0, 5, OpGet, 'a'}, 0); err != io.ErrUnexpectedEOF {
		t.Fatalf("torn body: %v", err)
	}

	var req Request
	// PUT with key length past the frame end.
	if err := ParseRequest(OpPut, []byte{0, 0, 0, 200, 'k'}, &req); !errors.Is(err, ErrMalformed) {
		t.Fatalf("put bad klen: %v", err)
	}
	// BATCH whose count cannot fit the frame.
	if err := ParseRequest(OpBatch, []byte{0, 0, 1, 0}, &req); !errors.Is(err, ErrMalformed) {
		t.Fatalf("batch forged count: %v", err)
	}
	// BATCH over the op-count limit.
	big := appendU32(nil, MaxBatchOps+1)
	if err := ParseRequest(OpBatch, big, &req); !errors.Is(err, ErrMalformed) {
		t.Fatalf("batch over limit: %v", err)
	}
	// BATCH with an unknown kind.
	raw := appendU32(nil, 1)
	raw = append(raw, 9)
	raw = appendBytes(raw, []byte("k"))
	raw = appendBytes(raw, nil)
	if err := ParseRequest(OpBatch, raw, &req); !errors.Is(err, ErrMalformed) {
		t.Fatalf("batch bad kind: %v", err)
	}
	// SCAN with undefined flag bits.
	if err := ParseRequest(OpScan, []byte{0x80, 0, 0, 0, 0}, &req); !errors.Is(err, ErrMalformed) {
		t.Fatalf("scan bad flags: %v", err)
	}
	// Trailing bytes after a complete COUNT payload.
	if err := ParseRequest(OpCount, []byte{1}, &req); !errors.Is(err, ErrMalformed) {
		t.Fatalf("count trailing: %v", err)
	}
	// Unknown opcode.
	if err := ParseRequest(0x7f, nil, &req); !errors.Is(err, ErrBadOpcode) {
		t.Fatalf("bad opcode: %v", err)
	}
	if err := ParseRequest(0, nil, &req); !errors.Is(err, ErrBadOpcode) {
		t.Fatalf("zero opcode: %v", err)
	}
}

// TestKindMirrorsShardOpKind pins the wire batch kinds to the engine's
// OpKind values — the server converts by value, no translation table.
func TestKindMirrorsShardOpKind(t *testing.T) {
	pairs := []struct {
		wire uint8
		eng  shard.OpKind
	}{
		{KindPut, shard.OpPut},
		{KindInsert, shard.OpInsert},
		{KindUpdate, shard.OpUpdate},
		{KindDelete, shard.OpDelete},
	}
	for _, p := range pairs {
		if p.wire != uint8(p.eng) {
			t.Fatalf("wire kind %d != shard kind %d", p.wire, uint8(p.eng))
		}
	}
}

// TestCodeForTable pins every engine-error → wire-code mapping, including
// wrapped forms as the engine actually produces them.
func TestCodeForTable(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want Code
	}{
		{"nil", nil, CodeOK},
		{"busy", shard.ErrBusy, CodeBusy},
		{"busy wrapped", fmt.Errorf("shard 2: %w", shard.ErrBusy), CodeBusy},
		{"closed", shard.ErrClosed, CodeShutdown},
		{"closed wrapped", fmt.Errorf("submit: %w", shard.ErrClosed), CodeShutdown},
		{"down", shard.ErrShardDown, CodeUnavail},
		{"down wrapped", fmt.Errorf("shard 5: %w: writer fault", shard.ErrShardDown), CodeUnavail},
		{"crashed", shard.ErrCrashed, CodeUnavail},
		{"duplicate", slotted.ErrDuplicate, CodeDup},
		{"duplicate wrapped", fmt.Errorf("insert k3: %w", slotted.ErrDuplicate), CodeDup},
		{"absent", btree.ErrKeyNotFound, CodeKeyAbsent},
		{"too large", btree.ErrTooLarge, CodeTooLarge},
		{"unknown", errors.New("disk on fire"), CodeInternal},
	}
	for _, c := range cases {
		if got := CodeFor(c.err); got != c.want {
			t.Errorf("%s: CodeFor = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestShardOf(t *testing.T) {
	cases := []struct {
		err  error
		want int32
	}{
		{nil, -1},
		{fmt.Errorf("shard 3: %w", shard.ErrShardDown), 3},
		{fmt.Errorf("shard 12: %w: cause", shard.ErrShardDown), 12},
		{shard.ErrCrashed, -1},
		{errors.New("shard x: nope"), -1},
		{errors.New("shard -4: nope"), -1},
		{errors.New("shardless"), -1},
	}
	for _, c := range cases {
		if got := ShardOf(c.err); got != c.want {
			t.Errorf("ShardOf(%v) = %d, want %d", c.err, got, c.want)
		}
	}
}

func TestCodeErrSentinels(t *testing.T) {
	cases := []struct {
		code Code
		want error
	}{
		{CodeBusy, ErrRemoteBusy},
		{CodeUnavail, ErrRemoteUnavail},
		{CodeShutdown, ErrRemoteShutdown},
		{CodeDup, ErrRemoteDup},
		{CodeKeyAbsent, ErrRemoteKeyAbsent},
		{CodeTooLarge, ErrRemoteTooLarge},
		{CodeProto, ErrRemoteProto},
		{CodeInternal, ErrRemote},
	}
	for _, c := range cases {
		err := c.code.Err(4, "detail")
		if !errors.Is(err, c.want) {
			t.Errorf("%v.Err not Is(%v): %v", c.code, c.want, err)
		}
		if !strings.Contains(err.Error(), "shard 4") || !strings.Contains(err.Error(), "detail") {
			t.Errorf("%v.Err text: %v", c.code, err)
		}
	}
	if err := CodeOK.Err(-1, ""); err != nil {
		t.Fatalf("CodeOK.Err: %v", err)
	}
	if err := CodeNotFound.Err(-1, ""); err != nil {
		t.Fatalf("CodeNotFound.Err: %v", err)
	}
	if CodeBusy.Err(-1, "") != ErrRemoteBusy {
		t.Fatalf("bare busy should be the sentinel itself")
	}
	if !CodeBusy.Retryable() || CodeUnavail.Retryable() {
		t.Fatalf("Retryable table wrong")
	}
}

func TestCodeStrings(t *testing.T) {
	for c := CodeOK; c <= CodeInternal; c++ {
		if s := c.String(); s == "" || strings.HasPrefix(s, "code(") {
			t.Errorf("Code %d has no name: %q", c, s)
		}
	}
	if Code(200).String() != "code(200)" {
		t.Errorf("unknown code string: %q", Code(200).String())
	}
}
