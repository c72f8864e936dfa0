package wire

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
)

// Codec negotiation is one round trip, spent once per connection:
//
//	client                                 server
//	  | -- hello {codecs: [binary2,json]} -->|   (always JSON)
//	  |<-- hello-ack {codec: binary2} ------ |   (encoded in the chosen codec)
//	  | ==== all further frames in the chosen codec ====
//
// The server picks the first codec of its own preference list the client
// also offered, falling back to JSON. A server that answers the hello with
// anything but a hello-ack fails the dial. A first frame that is not a
// hello leaves the connection on JSON.

// pickCodec returns the first of the server's preference list the client
// also offers, falling back to JSON (always implicitly supported).
func pickCodec(server []Codec, client []string) Codec {
	for _, c := range server {
		for _, name := range client {
			if c.Name() == name {
				return c
			}
		}
	}
	return JSON
}

// readFrameDetect reads one frame and decodes it by sniffing the codec
// from the body's first byte: binary bodies open with a magic byte no JSON
// document can start with. Only the handshake needs this — after it, each
// side knows its connection's codec.
func readFrameDetect(r io.Reader) (*Envelope, error) {
	bp, body, err := readFrameBody(r)
	if err != nil {
		return nil, err
	}
	defer putReadBuf(bp)
	codec := JSON
	if body[0] == binMagic {
		codec = Binary2
	}
	env, err := codec.DecodeEnvelope(body)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return env, nil
}

// negotiateClient advertises codecs on a fresh connection and returns the
// codec the server picked.
func negotiateClient(conn net.Conn, codecs []Codec) (Codec, error) {
	hello := &Envelope{Type: TypeHello, Msg: Hello{Codecs: codecNames(codecs)}}
	if err := jsonFramer.WriteFrame(conn, hello); err != nil {
		return nil, err
	}
	reply, err := readFrameDetect(conn)
	if err != nil {
		return nil, err
	}
	return resolveAck(reply, codecs)
}

// resolveAck checks that the server answered the hello with a hello-ack
// and maps its pick back to one of the offered codecs. Shared by the
// normal handshake and the piggybacked one-shot path so negotiation
// semantics cannot fork. The server has already switched its side to the
// acked codec, so a bad ack fails the connection rather than guessing.
func resolveAck(reply *Envelope, codecs []Codec) (Codec, error) {
	if reply.Type != TypeHelloAck {
		if reply.Type == TypeError {
			var e ErrorReply
			if reply.Decode(&e) == nil {
				return nil, fmt.Errorf("server rejected hello: %s", e.Message)
			}
		}
		return nil, fmt.Errorf("server answered hello with %q, not %q", reply.Type, TypeHelloAck)
	}
	var ack HelloAck
	if err := reply.Decode(&ack); err != nil {
		return nil, fmt.Errorf("bad hello-ack: %w", err)
	}
	for _, c := range codecs {
		if c.Name() == ack.Codec {
			return c, nil
		}
	}
	return nil, fmt.Errorf("server picked codec %q, which was not offered", ack.Codec)
}

// CallPiggyback performs a one-shot exchange on a fresh connection: the
// hello advertises codecs AND carries the first request, so the exchange
// costs a single round trip — the reply, in the negotiated codec, arrives
// right behind the hello-ack. This is the path for rare throwaway
// connections (proxy pool spawns). A server that answers the hello with
// anything but a hello-ack fails the call; failures the server reports
// for the request come back as *RemoteError. The caller owns the
// connection's lifecycle.
func CallPiggyback(conn net.Conn, codecs []Codec, req *Envelope) (*Envelope, error) {
	if codecs == nil {
		codecs = DefaultCodecs()
	}
	if req.ID == 0 {
		// The hello itself travels with id 0; the request gets its own so
		// its reply cannot be mistaken for the ack.
		req.ID = 1
	}
	first := &HelloFirst{Type: req.Type, ID: req.ID, Payload: json.RawMessage(req.Payload)}
	if len(first.Payload) == 0 && req.Msg != nil {
		raw, err := json.Marshal(req.Msg)
		if err != nil {
			return nil, fmt.Errorf("%w: marshal %s payload: %v", ErrEncode, req.Type, err)
		}
		first.Payload = raw
	}
	hello := &Envelope{Type: TypeHello, Msg: Hello{Codecs: codecNames(codecs), First: first}}
	if err := jsonFramer.WriteFrame(conn, hello); err != nil {
		return nil, err
	}
	ack, err := readFrameDetect(conn)
	if err != nil {
		return nil, err
	}
	chosen, err := resolveAck(ack, codecs)
	if err != nil {
		return nil, err
	}
	reply, err := NewFramer(chosen).ReadFrame(conn)
	if err != nil {
		return nil, err
	}
	if reply.ID != req.ID {
		return nil, fmt.Errorf("wire: piggyback reply carries id %d, want %d", reply.ID, req.ID)
	}
	if reply.Type == TypeError {
		var e ErrorReply
		if err := reply.Decode(&e); err != nil {
			return nil, err
		}
		return nil, &RemoteError{Message: e.Message}
	}
	return reply, nil
}
