package wire

import (
	"bytes"
	"testing"
	"time"

	"actyp/internal/pool"
	"actyp/internal/shadow"
)

// benchCodec measures one codec's full frame life: encode a
// representative request, read it back, decode the payload — the
// per-frame CPU the transport pays on each hop. The acceptance bar is
// binary >= 2x the JSON rate on the request benchmark.
func benchCodec(b *testing.B, codec Codec, payload any, out func() any) {
	framer := NewFramer(codec)
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		env := &Envelope{Type: TypeQuery, ID: uint64(i), Msg: payload}
		if err := framer.WriteFrame(&buf, env); err != nil {
			b.Fatal(err)
		}
		got, err := framer.ReadFrame(&buf)
		if err != nil {
			b.Fatal(err)
		}
		if err := got.Decode(out()); err != nil {
			b.Fatal(err)
		}
	}
}

func benchRequest() QueryRequest {
	return QueryRequest{Text: "punch.rsrc.arch = sun && punch.rsrc.ostype = solaris", TTL: 4, Visited: []string{"pm-a", "pm-b"}}
}

func benchReply() QueryReply {
	return QueryReply{
		Lease: &pool.Lease{
			ID: "p#0:17", Machine: "m00017", Addr: "10.0.3.17",
			ExecUnitPort: 7000, MountMgrPort: 7001, AccessKey: "ak-58f2c6",
			Pool: "arch=sun#0", Granted: time.Unix(1753600000, 123456789),
		},
		Shadow:    &shadow.Account{Machine: "m00017", User: "shadow03", UID: 5003},
		Fragments: 2, Succeeded: 1, ElapsedNS: 1234567,
	}
}

func BenchmarkCodecRequestJSON(b *testing.B) {
	benchCodec(b, JSON, benchRequest(), func() any { return &QueryRequest{} })
}

func BenchmarkCodecRequestBinary2(b *testing.B) {
	benchCodec(b, Binary2, benchRequest(), func() any { return &QueryRequest{} })
}

func BenchmarkCodecReplyJSON(b *testing.B) {
	benchCodec(b, JSON, benchReply(), func() any { return &QueryReply{} })
}

func BenchmarkCodecReplyBinary2(b *testing.B) {
	benchCodec(b, Binary2, benchReply(), func() any { return &QueryReply{} })
}
