// Package certs implements the SSL-certificate substrate: a certificate
// authority that mints real X.509 certificates in the misconfiguration
// categories of the paper's Table VI, and a classifier that reproduces the
// paper's taxonomy by performing actual chain and hostname verification
// with crypto/x509.
//
// The paper fetched certificate chains from port 443 of ~737K resolvable
// IDNs with OpenSSL and "the validity of all certificates were checked by
// OpenSSL as well", splitting the problems into Expired (12.54%), Invalid
// Authority / self-signed (18.14%) and Invalid Common Name / shared
// (67.28%). We cannot scan the Internet, so the generator deploys
// synthetic-but-real certificates at those rates and this package verifies
// them for real.
package certs

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"io"
	"math/big"
	"strings"
	"time"

	"idnlab/internal/simrand"
)

// Problem classifies one deployed certificate per Table VI. Categories are
// mutually exclusive; a certificate with several defects reports the first
// one in this priority order, matching how the paper's rows partition the
// total.
type Problem int

// Problem values.
const (
	// ProblemNone means the chain verifies and the name matches.
	ProblemNone Problem = iota
	// ProblemExpired means the certificate is outside its validity window.
	ProblemExpired
	// ProblemInvalidAuthority means the chain does not verify to a trusted
	// root (self-signed or unknown issuer).
	ProblemInvalidAuthority
	// ProblemInvalidCommonName means the chain verifies but the leaf is
	// not valid for the serving domain (shared certificates).
	ProblemInvalidCommonName
)

var problemNames = map[Problem]string{
	ProblemNone:              "Valid",
	ProblemExpired:           "Expired Certificate",
	ProblemInvalidAuthority:  "Invalid Authority",
	ProblemInvalidCommonName: "Invalid Common Name",
}

// String returns the Table VI row label.
func (p Problem) String() string {
	if n, ok := problemNames[p]; ok {
		return n
	}
	return "Unknown"
}

// randReader adapts simrand.Source to io.Reader for deterministic key
// generation. The resulting keys are reproducible and NOT cryptographically
// secret — this is a measurement simulator, not a production CA.
type randReader struct {
	src *simrand.Source
}

func (r randReader) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = byte(r.src.Uint64())
	}
	return len(p), nil
}

// Authority is a synthetic certificate authority.
type Authority struct {
	cert   *x509.Certificate
	key    *ecdsa.PrivateKey
	pool   *x509.CertPool
	rand   io.Reader
	serial int64
	now    time.Time
	// keyPool caches a few leaf keys; key reuse does not affect the
	// validity taxonomy and makes large deployments fast.
	keyPool []*ecdsa.PrivateKey
}

// NewAuthority creates a CA with deterministic keys derived from seed.
// now anchors validity windows (certificates are valid relative to it).
func NewAuthority(seed uint64, now time.Time) (*Authority, error) {
	a := &Authority{rand: randReader{src: simrand.New(seed)}, now: now.UTC(), serial: 1}
	key, err := ecdsa.GenerateKey(elliptic.P256(), a.rand)
	if err != nil {
		return nil, fmt.Errorf("certs: generate CA key: %w", err)
	}
	a.key = key
	tmpl := &x509.Certificate{
		SerialNumber:          big.NewInt(a.nextSerial()),
		Subject:               pkix.Name{CommonName: "IDNLab Synthetic Root CA", Organization: []string{"idnlab"}},
		NotBefore:             a.now.AddDate(-10, 0, 0),
		NotAfter:              a.now.AddDate(10, 0, 0),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(a.rand, tmpl, tmpl, &key.PublicKey, key)
	if err != nil {
		return nil, fmt.Errorf("certs: create CA cert: %w", err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("certs: parse CA cert: %w", err)
	}
	a.cert = cert
	a.pool = x509.NewCertPool()
	a.pool.AddCert(cert)
	for i := 0; i < 4; i++ {
		k, err := ecdsa.GenerateKey(elliptic.P256(), a.rand)
		if err != nil {
			return nil, fmt.Errorf("certs: generate leaf key: %w", err)
		}
		a.keyPool = append(a.keyPool, k)
	}
	return a, nil
}

func (a *Authority) nextSerial() int64 {
	a.serial++
	return a.serial
}

// Roots returns the trust pool containing this authority's root.
func (a *Authority) Roots() *x509.CertPool { return a.pool }

// IssueOption customizes certificate issuance.
type IssueOption func(*issueConfig)

type issueConfig struct {
	expired    bool
	selfSigned bool
}

// Expired makes the certificate's validity window end before the
// authority's reference time.
func Expired() IssueOption { return func(c *issueConfig) { c.expired = true } }

// SelfSigned signs the certificate with its own key instead of the CA.
func SelfSigned() IssueOption { return func(c *issueConfig) { c.selfSigned = true } }

// Issue mints a server certificate for the given DNS name. By default the
// certificate is CA-signed and currently valid. Deploying it for a domain
// other than name produces the shared-certificate (invalid common name)
// condition.
func (a *Authority) Issue(name string, opts ...IssueOption) (*x509.Certificate, error) {
	var cfg issueConfig
	for _, o := range opts {
		o(&cfg)
	}
	notBefore := a.now.AddDate(-1, 0, 0)
	notAfter := a.now.AddDate(1, 0, 0)
	if cfg.expired {
		notBefore = a.now.AddDate(-3, 0, 0)
		notAfter = a.now.AddDate(0, -2, 0)
	}
	key := a.keyPool[int(a.serial)%len(a.keyPool)]
	tmpl := &x509.Certificate{
		SerialNumber: big.NewInt(a.nextSerial()),
		Subject:      pkix.Name{CommonName: name},
		DNSNames:     []string{name},
		NotBefore:    notBefore,
		NotAfter:     notAfter,
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
	}
	parent, signer := a.cert, a.key
	if cfg.selfSigned {
		parent, signer = tmpl, key
		tmpl.BasicConstraintsValid = true
	}
	der, err := x509.CreateCertificate(a.rand, tmpl, parent, &key.PublicKey, signer)
	if err != nil {
		return nil, fmt.Errorf("certs: issue %s: %w", name, err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, fmt.Errorf("certs: parse issued cert: %w", err)
	}
	return cert, nil
}

// Classify verifies cert as served by domain at time now against roots and
// returns its Table VI category. Verification is real: expiry against the
// validity window, chain building against the trust pool, and hostname
// matching against the leaf's SANs.
func Classify(cert *x509.Certificate, domain string, now time.Time, roots *x509.CertPool) Problem {
	if now.Before(cert.NotBefore) || now.After(cert.NotAfter) {
		return ProblemExpired
	}
	if _, err := cert.Verify(x509.VerifyOptions{Roots: roots, CurrentTime: now}); err != nil {
		return ProblemInvalidAuthority
	}
	if err := cert.VerifyHostname(domain); err != nil {
		return ProblemInvalidCommonName
	}
	return ProblemNone
}

// Store records which certificate each domain serves.
type Store struct {
	byDomain map[string]*x509.Certificate
}

// NewStore returns an empty deployment store.
func NewStore() *Store {
	return &Store{byDomain: make(map[string]*x509.Certificate)}
}

// Deploy records that domain serves cert.
func (s *Store) Deploy(domain string, cert *x509.Certificate) {
	s.byDomain[strings.ToLower(domain)] = cert
}

// Get returns the certificate served by domain.
func (s *Store) Get(domain string) (*x509.Certificate, bool) {
	c, ok := s.byDomain[strings.ToLower(domain)]
	return c, ok
}
