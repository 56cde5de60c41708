package intersect

import (
	"fmt"
	"testing"

	"confaudit/internal/mathx"
	"confaudit/internal/transport"
)

// TestIntersectOverTCP runs the full protocol over real TCP loopback,
// so packed relay and final bodies cross real binary frames, in both
// the chunked framing (chunk size 2 forces multi-chunk streams) and the
// default single-chunk framing.
func TestIntersectOverTCP(t *testing.T) {
	sets := map[string][][]byte{
		"P1": {[]byte("a"), []byte("b"), []byte("c"), []byte("d"), []byte("e")},
		"P2": {[]byte("b"), []byte("c"), []byte("d"), []byte("e"), []byte("f")},
		"P3": {[]byte("c"), []byte("d"), []byte("e"), []byte("f"), []byte("g")},
	}
	want := []string{"c", "d", "e"}
	run := func(t *testing.T, session string) {
		net := transport.NewTCPNetwork(map[string]string{"P1": "127.0.0.1:0", "P2": "127.0.0.1:0", "P3": "127.0.0.1:0"})
		cfg := Config{
			Group:     mathx.Oakley768,
			Ring:      []string{"P1", "P2", "P3"},
			Receivers: []string{"P1", "P2", "P3"},
			Session:   session,
		}
		for node, res := range runPartiesOn(t, net, cfg, sets) {
			if got := sortedStrings(res.Plaintext); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s: intersection %v, want %v", node, got, want)
			}
		}
	}
	t.Run("chunked", func(t *testing.T) {
		defer SetRelayChunkSize(2)()
		run(t, "tcp/chunked")
	})
	t.Run("single chunk", func(t *testing.T) {
		run(t, "tcp/single")
	})
}
