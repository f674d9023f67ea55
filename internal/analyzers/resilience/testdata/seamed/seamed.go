// Negative fixture: the sanctioned shapes — context-aware requests, an
// explicit client, a server with a header timeout, dialers with contexts,
// and shadowed package names.
package fixture

import (
	"context"
	"net"
	"net/http"
	"time"
)

var client = &http.Client{Timeout: 5 * time.Second}

var server = &http.Server{Addr: "127.0.0.1:0", ReadHeaderTimeout: 5 * time.Second}

func seamed(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://example.test/", nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()

	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", "example.test:443")
	if err != nil {
		return err
	}
	defer conn.Close()

	// A local named like the package must not be mistaken for it.
	type sleeper struct{}
	time := struct{ Sleep func(any) }{Sleep: func(any) {}}
	time.Sleep(sleeper{})
	return nil
}
