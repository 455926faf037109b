package server

import (
	"bytes"
	"testing"
	"time"

	"vsfabric/internal/avro"
	"vsfabric/internal/types"
	"vsfabric/internal/vertica"
)

// TestCopyDisconnectMidStream is the regression test for a client that
// hangs up inside an autocommit COPY: one 'D' frame of complete records,
// then the connection closes with no 'E'. The copy reader used to hand the
// parser a clean end of stream, and the partial load committed. Now the
// load fails, nothing is visible, and the session, its transaction and its
// table lock are gone.
func TestCopyDisconnectMidStream(t *testing.T) {
	var avroData bytes.Buffer
	w, err := avro.NewWriter(&avroData, avro.FromTypes(types.NewSchema(
		types.Column{Name: "n", T: types.Int64}, types.Column{Name: "s", T: types.Varchar})), avro.CodecDeflate, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []types.Row{
		{types.IntValue(1), types.StringValue("a")},
		{types.IntValue(2), types.StringValue("b")},
	} {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, sql string
		data      []byte
	}{
		{"csv", "COPY ct FROM STDIN", []byte("1,a\n2,b\n")},
		{"avro", "COPY ct FROM STDIN FORMAT AVRO DIRECT", avroData.Bytes()},
	} {
		t.Run(c.name, func(t *testing.T) {
			cl := vertica.MustNewCluster(1)
			srv := New(cl, 0)
			ep, err := srv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			admin, err := cl.Connect(0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := admin.Execute("CREATE TABLE ct (n INTEGER, s VARCHAR)"); err != nil {
				t.Fatal(err)
			}
			admin.Close()
			baseline := cl.OpenSessions(0)

			cc, err := DialContext(bg, ep)
			if err != nil {
				t.Fatal(err)
			}
			defer cc.Close()
			// A first request negotiates the binary protocol.
			if _, err := cc.Execute(bg, "SELECT 1"); err != nil {
				t.Fatal(err)
			}
			if _, err := cc.sendBinRequest(bg, frameBinCopy, c.sql); err != nil {
				t.Fatal(err)
			}
			if err := cc.writeFrame(bg, frameCopyData, c.data); err != nil {
				t.Fatal(err)
			}
			cc.Close()

			// The server ends the session once it has handled the hang-up.
			waitSessions(t, cl, baseline)

			check, err := DialContext(bg, ep)
			if err != nil {
				t.Fatal(err)
			}
			defer check.Close()
			res, err := check.Execute(bg, "SELECT COUNT(*) FROM ct")
			if err != nil {
				t.Fatal(err)
			}
			if got := res.Rows[0][0].AsInt(); got != 0 {
				t.Fatalf("%d rows committed from a COPY the client never finished, want 0", got)
			}
			// DELETE needs the EXCLUSIVE lock: it succeeds only if no
			// transaction still holds the table.
			if _, err := check.Execute(bg, "DELETE FROM ct"); err != nil {
				t.Fatalf("the broken COPY left the table locked: %v", err)
			}
			tbl, _ := cl.Catalog().Table("ct")
			for i, st := range tbl.Stores {
				if n := st.TotalRows(); n != 0 {
					t.Errorf("store %d holds %d physical rows after the aborted load", i, n)
				}
			}
		})
	}
}

// waitSessions waits for node 0's open-session count to reach want.
func waitSessions(t *testing.T, cl *vertica.Cluster, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for cl.OpenSessions(0) != want {
		if time.Now().After(deadline) {
			t.Fatalf("open sessions = %d, want %d", cl.OpenSessions(0), want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
