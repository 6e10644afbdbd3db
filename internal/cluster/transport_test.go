package cluster

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestOfferSendsSizedReplayableBody: net/http derives ContentLength and
// GetBody only from the body types it knows, so an Offer must hand it
// one — otherwise every PUT goes out chunked and cannot be re-sent on a
// connection the peer closed between requests.
func TestOfferSendsSizedReplayableBody(t *testing.T) {
	data := bytes.Repeat([]byte("EVCACHE1"), 100)
	var length int64
	var encoding []string
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		length, encoding = r.ContentLength, r.TransferEncoding
		got, _ := io.ReadAll(r.Body)
		if !bytes.Equal(got, data) {
			t.Errorf("peer read %d bytes, want the %d offered", len(got), len(data))
		}
		w.WriteHeader(http.StatusNoContent)
	}))
	defer peer.Close()

	tr := &HTTPTransport{}
	if err := tr.Offer(context.Background(), Member{ID: "p", URL: peer.URL}, testKey(1), data); err != nil {
		t.Fatal(err)
	}
	if length != int64(len(data)) || len(encoding) != 0 {
		t.Fatalf("peer saw ContentLength %d, TransferEncoding %v; want %d and none", length, encoding, len(data))
	}
}
