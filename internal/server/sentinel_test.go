package server

import (
	"errors"
	"testing"

	"vsfabric/internal/resilience"
	"vsfabric/internal/vertica"
)

// TestSentinelRoundTripOverWire proves the engine's typed sentinels survive
// the trip through the framed protocol: a remote caller can distinguish a
// down node (transient, the node returns), a removed node (never returns,
// but transient for failover), and a session-limit rejection with errors.Is,
// exactly as an in-process caller can.
func TestSentinelRoundTripOverWire(t *testing.T) {
	cl, err := vertica.NewCluster(vertica.Config{Nodes: 2, MaxClientSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(cl, 1)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Down node: the sentinel crosses the wire and stays transient.
	cl.Node(1).SetDown(true)
	conn, err := DialContext(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = conn.Execute(bg, "SELECT 1")
	conn.Close()
	if !errors.Is(err, vertica.ErrNodeDown) {
		t.Fatalf("down node over wire = %v, want ErrNodeDown in the chain", err)
	}
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("remote error not marked ErrRemote: %v", err)
	}
	if !resilience.IsTransient(err) {
		t.Fatalf("node-down must classify transient over the wire: %v", err)
	}
	cl.Node(1).SetDown(false)

	// Session limit: the one slot is pinned locally; the remote session is
	// rejected with the typed sentinel.
	pinned, err := cl.Connect(1)
	if err != nil {
		t.Fatal(err)
	}
	conn, err = DialContext(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = conn.Execute(bg, "SELECT 1")
	conn.Close()
	pinned.Close()
	if !errors.Is(err, vertica.ErrSessionLimit) {
		t.Fatalf("session limit over wire = %v, want ErrSessionLimit", err)
	}
	if !resilience.IsTransient(err) {
		t.Fatalf("session limit must classify transient: %v", err)
	}

	// Removed node: distinct from down, still transient (failover works —
	// the drained segments live on the survivors).
	if err := cl.RemoveNode(1); err != nil {
		t.Fatal(err)
	}
	conn, err = DialContext(bg, addr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = conn.Execute(bg, "SELECT 1")
	conn.Close()
	if !errors.Is(err, vertica.ErrNodeRemoved) {
		t.Fatalf("removed node over wire = %v, want ErrNodeRemoved", err)
	}
	if errors.Is(err, vertica.ErrNodeDown) {
		t.Fatalf("removed node must not read as merely down: %v", err)
	}
	if !resilience.IsTransient(err) {
		t.Fatalf("node-removed must classify transient for failover: %v", err)
	}
}
