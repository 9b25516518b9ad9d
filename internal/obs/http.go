package obs

import (
	"context"
	"net/http"
)

// RequestIDHeader is the HTTP header that carries a request's trace ID
// between nodes. The server honors it inbound and echoes it on every
// response; the routing front stamps it onto forwarded requests, so one user-visible request appears under a single ID
// in every node's /debug/traces ring and request log.
const RequestIDHeader = "X-Request-Id"

// SetRequestID stamps h with the trace ID carried by ctx, so an
// outbound HTTP hop (a front-tier forward) joins
// the originating request's trace on the receiving node. No-op when ctx
// carries no trace.
func SetRequestID(ctx context.Context, h http.Header) {
	if t := FromContext(ctx); t != nil {
		h.Set(RequestIDHeader, t.ID)
	}
}
