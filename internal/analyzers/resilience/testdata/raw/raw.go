// Positive fixture: every raw network/sleep/server form the rules flag.
package fixture

import (
	"crypto/tls"
	"net"
	"net/http"
	"time"
)

func raw() {
	_, _ = http.Get("http://example.test/")
	_ = http.DefaultClient
	_, _ = net.Dial("tcp", "example.test:443")
	_, _ = tls.Dial("tcp", "example.test:443", nil)
	time.Sleep(time.Second)
	_ = &http.Server{Addr: "127.0.0.1:0"}
	_ = http.Server{ReadTimeout: time.Second}
}
