# Multi-stage build for the Ratio Rules service.
#
# Stage 1 compiles rrserve (and rrbench, which regenerates the paper's
# tables and figures — a quick smoke test of the mining core) as
# static binaries; stage 2 ships them on distroless static — no shell,
# no package manager, runs as nonroot. The service
# owns its own HTTP probes (/healthz, /readyz) so no curl is needed in
# the image; compose healthchecks use rrserve itself via the go
# net/http probe below.
#
#   docker build -t ratiorules .
#   docker run -p 8080:8080 -v rr-data:/data ratiorules \
#       -addr :8080 -data-dir /data
#
# See docs/runbook.md for the full deployment story (tenants file,
# follower replicas, cluster workers, overload triage).

FROM golang:1.22 AS build
WORKDIR /src
# go.mod first so the (empty — stdlib only) module graph caches.
COPY go.mod ./
RUN go mod download
COPY . .
RUN CGO_ENABLED=0 go build -trimpath -ldflags="-s -w" -o /out/rrserve ./cmd/rrserve && \
    CGO_ENABLED=0 go build -trimpath -ldflags="-s -w" -o /out/rrbench ./cmd/rrbench && \
    CGO_ENABLED=0 go build -trimpath -ldflags="-s -w" -o /out/healthprobe ./cmd/healthprobe

FROM gcr.io/distroless/static-debian12:nonroot
COPY --from=build /out/rrserve /rrserve
COPY --from=build /out/rrbench /rrbench
COPY --from=build /out/healthprobe /healthprobe
# Model store volume; matches the compose files and the runbook.
VOLUME ["/data"]
EXPOSE 8080
USER nonroot
ENTRYPOINT ["/rrserve"]
CMD ["-addr", ":8080", "-data-dir", "/data"]
