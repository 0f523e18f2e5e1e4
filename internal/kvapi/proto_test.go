package kvapi

import (
	"bytes"
	"reflect"
	"testing"
)

func TestRequestRoundTrip(t *testing.T) {
	cases := []Request{
		{Type: MsgPing},
		{Type: MsgBegin},
		{Type: MsgCommit},
		{Type: MsgAbort},
		{Type: MsgGet, Key: 0},
		{Type: MsgGet, Key: 1<<63 - 1},
		{Type: MsgPut, Key: 7, Val: -42},
		{Type: MsgTxn, Ops: []Op{}},
		{Type: MsgTxn, Ops: []Op{
			{Kind: OpGet, Key: 3},
			{Kind: OpPut, Key: 9, Val: 1 << 40},
			{Kind: OpPut, Key: 0, Val: -1},
		}},
		{Type: MsgReplPoll, Stream: 4, Seg: 2, Off: 8190, Max: 1 << 16},
		{Type: MsgReplPoll},
	}
	for _, want := range cases {
		var buf bytes.Buffer
		if err := WriteRequest(&buf, want); err != nil {
			t.Fatalf("%v: write: %v", want, err)
		}
		got, err := ReadRequest(&buf)
		if err != nil {
			t.Fatalf("%v: read: %v", want, err)
		}
		// nil vs empty slices are wire-equivalent.
		if len(want.Ops) == 0 {
			want.Ops, got.Ops = nil, nil
		}
		if len(got.Ops) == 0 {
			got.Ops = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	cases := []Response{
		{Status: StatusOK},
		{Status: StatusAborted, Retries: 17, Msg: "retry budget exhausted"},
		{Status: StatusBusy, RetryAfterMs: 25},
		{Status: StatusError, Msg: "no open transaction"},
		{Status: StatusOK, Results: []Result{
			{Val: 42, Found: true}, {Val: 0, Found: false}, {Val: -7, Found: true},
		}, Retries: 3},
		{Status: StatusOK, Data: []byte{0xDE, 0xAD, 0xBE, 0xEF}, Epoch: 7, More: true, Next: true, Appends: 991},
		{Status: StatusRedirect, Redirect: "127.0.0.1:7070", Msg: "follower: writes go to the primary"},
	}
	for _, want := range cases {
		var buf bytes.Buffer
		if err := WriteResponse(&buf, want); err != nil {
			t.Fatalf("%v: write: %v", want, err)
		}
		got, err := ReadResponse(&buf)
		if err != nil {
			t.Fatalf("%v: read: %v", want, err)
		}
		if len(want.Results) == 0 {
			want.Results, got.Results = nil, nil
		}
		if len(got.Results) == 0 {
			got.Results = nil
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip: got %+v want %+v", got, want)
		}
	}
}

// TestDecodeTotal: corrupt and truncated bodies must error, not panic.
func TestDecodeTotal(t *testing.T) {
	good := AppendRequest(nil, Request{Type: MsgTxn, Ops: []Op{
		{Kind: OpPut, Key: 123456, Val: -987654},
		{Kind: OpGet, Key: 42},
	}})
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeRequest(good[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded without error", cut)
		}
	}
	goodResp := AppendResponse(nil, Response{
		Status: StatusOK, Results: []Result{{Val: 9, Found: true}}, Msg: "x",
	})
	for cut := 0; cut < len(goodResp); cut++ {
		if _, err := DecodeResponse(goodResp[:cut]); err == nil {
			t.Fatalf("response truncation at %d decoded without error", cut)
		}
	}
	// Garbage type bytes.
	if _, err := DecodeRequest([]byte{0xEE}); err == nil {
		t.Fatal("unknown message type decoded")
	}
	// Trailing junk is a protocol error.
	if _, err := DecodeRequest(append(AppendRequest(nil, Request{Type: MsgPing}), 0x01)); err == nil {
		t.Fatal("trailing junk decoded")
	}
}

func TestFrameBounds(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, make([]byte, MaxFrame+1)); err == nil {
		t.Fatal("oversized frame written")
	}
	// An adversarial length prefix must be rejected before allocation.
	buf.Reset()
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("oversized frame read")
	}
}

func TestJSONOps(t *testing.T) {
	req := TxnRequestJSON{Ops: []OpJSON{
		{Op: "get", Key: 1}, {Op: "put", Key: 2, Val: 3},
	}}
	ops, err := req.WireOps()
	if err != nil {
		t.Fatal(err)
	}
	want := []Op{{Kind: OpGet, Key: 1}, {Kind: OpPut, Key: 2, Val: 3}}
	if !reflect.DeepEqual(ops, want) {
		t.Fatalf("got %+v want %+v", ops, want)
	}
	if _, err := (TxnRequestJSON{Ops: []OpJSON{{Op: "del", Key: 1}}}).WireOps(); err == nil {
		t.Fatal("unknown JSON op accepted")
	}
}

// TestKeyRange: keys stop at 2^63-1 in every request shape that names
// one, binary and JSON alike; the largest key still decodes.
func TestKeyRange(t *testing.T) {
	const top = uint64(1) << 63
	for _, r := range []Request{
		{Type: MsgTxn, Ops: []Op{{Kind: OpGet, Key: 1}, {Kind: OpPut, Key: top | 5, Val: 99}}},
		{Type: MsgTxn, Ops: []Op{{Kind: OpCGet, Key: top}}},
		{Type: MsgGet, Key: top | 5},
		{Type: MsgPut, Key: ^uint64(0), Val: 1},
	} {
		if _, err := DecodeRequest(AppendRequest(nil, r)); err == nil {
			t.Fatalf("request %+v with a key >= 2^63 decoded", r)
		}
	}
	if _, err := DecodeRequest(AppendRequest(nil, Request{Type: MsgPut, Key: top - 1, Val: 1})); err != nil {
		t.Fatalf("key 2^63-1 refused: %v", err)
	}
	if _, err := (TxnRequestJSON{Ops: []OpJSON{{Op: "put", Key: top | 5, Val: 99}}}).WireOps(); err == nil {
		t.Fatal("JSON op with a key >= 2^63 accepted")
	}
}
