// Package version is the single source of the build identity reported
// by every long-running binary (idnserve, idngateway): health and
// readiness bodies include it so operators can tell which build a node
// runs straight from the load balancer's probe logs, and the gateway's
// merged metrics can surface version skew across a cluster.
package version

// Version is the repository's semantic version, bumped per PR wave.
const Version = "0.5.0"
