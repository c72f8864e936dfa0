package wire

import (
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// -wire-default-codec forces the package-default negotiation preference
// for a whole test run, so CI can run the entire wire suite once per
// codec:
//
//	go test -race ./internal/wire -wire-default-codec=binary2+flate
//	go test -race ./internal/wire -wire-default-codec=json
var defaultCodecFlag = flag.String("wire-default-codec", "",
	"force the default codec preference for this test run: json, binary2, or binary2+flate")

func TestMain(m *testing.M) {
	flag.Parse()
	switch *defaultCodecFlag {
	case "":
	case "json":
		defaultCodecs = []Codec{JSON}
	case "binary2":
		defaultCodecs = []Codec{Binary2, JSON}
	case "binary2+flate":
		comp, err := Compressed(Binary2, AlgoFlate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "building binary2+flate: %v\n", err)
			os.Exit(2)
		}
		defaultCodecs = []Codec{comp, Binary2, JSON}
	default:
		fmt.Fprintf(os.Stderr, "unknown -wire-default-codec %q\n", *defaultCodecFlag)
		os.Exit(2)
	}
	os.Exit(m.Run())
}

// startEchoServerOpts is startEchoServer with explicit serve options.
func startEchoServerOpts(t *testing.T, opts ServeOptions) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, conn)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer conn.Close()
				ServeConnOpts(conn, opts, func(env *Envelope) *Envelope {
					var p echoPayload
					if err := env.Decode(&p); err != nil {
						return ErrorEnvelope(env.ID, err)
					}
					if p.Sleep > 0 {
						time.Sleep(time.Duration(p.Sleep) * time.Millisecond)
					}
					reply, _ := NewEnvelope("echo", env.ID, p)
					return reply
				})
			}()
		}
	}()
	return ln.Addr().String(), func() {
		_ = ln.Close()
		mu.Lock()
		for _, c := range conns {
			_ = c.Close()
		}
		mu.Unlock()
		wg.Wait()
	}
}

// echoDialer builds a client dial function for an echo server address.
func echoDialer(addr string) DialFunc {
	return func() (net.Conn, error) { return net.Dial("tcp", addr) }
}

// checkEcho round-trips one uniquely-tokened call.
func checkEcho(t *testing.T, c *Client, token string) {
	t.Helper()
	reply, err := c.Call("echo", echoPayload{Token: token})
	if err != nil {
		t.Fatalf("%s: %v", token, err)
	}
	var p echoPayload
	if err := reply.Decode(&p); err != nil {
		t.Fatalf("%s: %v", token, err)
	}
	if p.Token != token {
		t.Fatalf("token = %q, want %q", p.Token, token)
	}
}

// TestNegotiateBinary: both ends prefer binary2, the connection lands on
// binary2, traffic flows.
func TestNegotiateBinary(t *testing.T) {
	addr, stop := startEchoServerOpts(t, ServeOptions{Window: 4, Codecs: []Codec{Binary2, JSON}})
	defer stop()
	c := NewClientOpts(echoDialer(addr), ClientOptions{Timeout: 5 * time.Second, Codecs: []Codec{Binary2, JSON}})
	defer c.Close()
	checkEcho(t, c, "hello-binary")
	if got := c.CodecName(); got != "binary2" {
		t.Errorf("negotiated %q, want binary2", got)
	}
}

// TestNegotiateJSONOnlyServer: a server offering only JSON pulls a
// binary-preferring client down to the floor.
func TestNegotiateJSONOnlyServer(t *testing.T) {
	addr, stop := startEchoServerOpts(t, ServeOptions{Window: 4, Codecs: []Codec{JSON}})
	defer stop()
	c := NewClientOpts(echoDialer(addr), ClientOptions{Timeout: 5 * time.Second, Codecs: []Codec{Binary2, JSON}})
	defer c.Close()
	checkEcho(t, c, "hello-floor")
	if got := c.CodecName(); got != "json" {
		t.Errorf("negotiated %q, want json", got)
	}
}

// TestNegotiateJSONOnlyClient: a JSON-only client gets JSON from a
// binary-preferring server.
func TestNegotiateJSONOnlyClient(t *testing.T) {
	addr, stop := startEchoServerOpts(t, ServeOptions{Window: 4, Codecs: []Codec{Binary2, JSON}})
	defer stop()
	c := NewClientOpts(echoDialer(addr), ClientOptions{Timeout: 5 * time.Second, Codecs: []Codec{JSON}})
	defer c.Close()
	checkEcho(t, c, "hello-json-client")
	if got := c.CodecName(); got != "json" {
		t.Errorf("negotiated %q, want json", got)
	}
}

// startHelloRejecter serves connections that answer the first frame (the
// hello) with an error envelope and then hang up — a server that does
// not take part in negotiation.
func startHelloRejecter(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				env, err := ReadFrame(conn)
				if err != nil {
					return
				}
				_ = WriteFrame(conn, ErrorEnvelope(env.ID, fmt.Errorf("unknown message type %q", env.Type)))
			}()
		}
	}()
	return ln.Addr().String()
}

// TestDialFailsOnHelloRejection: a server that answers the hello with an
// error envelope fails the dial with an error naming the rejection; the
// client does not settle on JSON behind the server's back.
func TestDialFailsOnHelloRejection(t *testing.T) {
	addr := startHelloRejecter(t)
	c := NewClientOpts(echoDialer(addr), ClientOptions{Timeout: 2 * time.Second})
	defer c.Close()
	err := c.Connect()
	if err == nil {
		t.Fatalf("dial succeeded on %q against a server that rejects the hello", c.CodecName())
	}
	if !errors.Is(err, ErrDial) || !strings.Contains(err.Error(), "rejected hello") {
		t.Fatalf("err = %v, want an ErrDial naming the hello rejection", err)
	}
}

// TestPiggybackFailsOnHelloRejection: the one-shot path fails the same
// way instead of re-sending the request on JSON.
func TestPiggybackFailsOnHelloRejection(t *testing.T) {
	addr := startHelloRejecter(t)
	conn := dialEcho(t, addr)
	_ = conn.SetDeadline(time.Now().Add(2 * time.Second))
	req, err := NewEnvelope("echo", 0, echoPayload{Token: "rejected"})
	if err != nil {
		t.Fatal(err)
	}
	reply, err := CallPiggyback(conn, nil, req)
	if err == nil {
		t.Fatalf("piggyback succeeded (reply %s) against a server that rejects the hello", reply.Type)
	}
	if !strings.Contains(err.Error(), "rejected hello") {
		t.Fatalf("err = %v, want the hello rejection", err)
	}
}

// TestNegotiationSurvivesReconnect: the handshake reruns on every redial,
// so a client that lost its binary connection negotiates binary again on
// the next one.
func TestNegotiationSurvivesReconnect(t *testing.T) {
	addr, stop := startEchoServerOpts(t, ServeOptions{Window: 4, Codecs: []Codec{Binary2, JSON}})
	c := NewClientOpts(echoDialer(addr), ClientOptions{Timeout: 2 * time.Second, Codecs: []Codec{Binary2, JSON}})
	defer c.Close()
	checkEcho(t, c, "before-restart")
	stop()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("relisten %s: %v", addr, err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				ServeConnOpts(conn, ServeOptions{Window: 4, Codecs: []Codec{Binary2, JSON}}, func(env *Envelope) *Envelope {
					var p echoPayload
					_ = env.Decode(&p)
					reply, _ := NewEnvelope("echo", env.ID, p)
					return reply
				})
			}()
		}
	}()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.Call("echo", echoPayload{Token: "after"}); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if got := c.CodecName(); got != "binary2" {
		t.Errorf("reconnected on %q, want binary2", got)
	}
}

// TestOversizedCallIsolationPerCodec re-proves the oversized-call
// isolation property on a negotiated connection for each codec: the
// rejection precedes the wire, so sibling calls and the connection
// survive.
func TestOversizedCallIsolationPerCodec(t *testing.T) {
	for _, name := range []string{"json", "binary2", "binary2+flate"} {
		t.Run(name, func(t *testing.T) {
			codec, err := CodecByName(name)
			if err != nil {
				t.Fatal(err)
			}
			addr, stop := startEchoServerOpts(t, ServeOptions{Window: 4, Codecs: []Codec{codec}})
			defer stop()
			c := NewClientOpts(echoDialer(addr), ClientOptions{Timeout: 5 * time.Second, Codecs: []Codec{codec}})
			defer c.Close()

			checkEcho(t, c, "warm")
			if got := c.CodecName(); got != name {
				t.Fatalf("negotiated %q, want %q", got, name)
			}
			big := make([]byte, MaxFrame+1)
			for i := range big {
				big[i] = 'x'
			}
			_, err = c.Call("echo", echoPayload{Token: string(big)})
			if err == nil || !preWire(err) {
				t.Fatalf("oversized call err = %v, want a pre-wire rejection", err)
			}
			checkEcho(t, c, "after")
		})
	}
}
