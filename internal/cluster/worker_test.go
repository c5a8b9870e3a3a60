package cluster

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"strings"
	"sync"
	"testing"
	"time"
)

// lockedBuffer is a bytes.Buffer safe for a server's error log.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// TestWorkerCorruptStreamLogsNoPanic sends a worker one good chunk and
// then a frame it must refuse, whose payload is still unread when the
// worker stops reading. The worker acks the good chunk and ends the
// stream, and net/http logs no panic on the way out.
func TestWorkerCorruptStreamLogsNoPanic(t *testing.T) {
	var logs lockedBuffer
	var once sync.Once
	closed := make(chan struct{})
	srv := httptest.NewUnstartedServer(NewWorker().Handler())
	srv.Config.ErrorLog = log.New(&logs, "", 0)
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateClosed {
			once.Do(func() { close(closed) })
		}
	}
	srv.Start()
	defer srv.Close()

	body := AppendChunk(nil, 1, 2, 0, []float64{1, 2, 3, 4})
	body = AppendChunk(body, 2, MaxWireWidth+1, 0, make([]float64, MaxWireWidth+1))
	// The whole body is sent before the client reads past the first
	// ack, so the worker's side holds the refused frame's payload.
	wrote := make(chan struct{})
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		WroteRequest: func(httptrace.WroteRequestInfo) { close(wrote) },
	})
	req, err := http.NewRequestWithContext(ctx, "POST", srv.URL+"/v1/cluster/ingest/m", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := ReadAck(resp.Body)
	if err != nil || ack.Seq != 1 || ack.Code != AckOK || ack.Rows != 2 {
		t.Fatalf("first ack = %+v, %v; want seq 1, 2 rows, ok", ack, err)
	}
	<-wrote
	if ack, err := ReadAck(resp.Body); !errors.Is(err, io.EOF) {
		t.Fatalf("after the refused frame: ack %+v, err %v; want the stream to end", ack, err)
	}
	resp.Body.Close()
	// The worker closes the connection: a net/http panic would be
	// logged before that.
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("worker kept the connection of a broken stream open")
	}
	if strings.Contains(logs.String(), "panic") {
		t.Fatalf("server logged a panic:\n%s", logs.String())
	}
}
