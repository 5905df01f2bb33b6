// Package smoke holds the end-to-end drills over the real binaries:
// serve, cluster, index, watch, stat and store. They compile only with
// the `smoke` build tag and run with `make smoke`
// (go test -tags smoke ./internal/smoke/); internal/proctest is the
// launcher underneath them.
package smoke
