package main

import (
	"context"
	"crypto/rand"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"confaudit/internal/audit"
	"confaudit/internal/cluster"
	"confaudit/internal/core"
	"confaudit/internal/logmodel"
	"confaudit/internal/mathx"
	"confaudit/internal/ticket"
	"confaudit/internal/transport"
)

// sessionIDs are the client endpoints the benchmark attaches: two
// appender sessions and one auditor.
var sessionIDs = []string{"u0", "u1", "aud"}

// system is the cluster under test: four in-process nodes over TCP
// loopback, each journaling under dataDir with the default fsync-always
// WAL, plus the benchmark's client sessions.
type system struct {
	part    *logmodel.Partition
	boot    *cluster.Bootstrap
	dataDir string
	dep     *core.Deployment
	users   []*cluster.Client
	mbs     []*transport.Mailbox // the writer sessions' mailboxes
	tickets []*ticket.Ticket
	aud     *audit.Auditor
}

// tcpNetwork returns a loopback network whose endpoints bind ephemeral
// ports; each endpoint registers its real address when it listens.
func tcpNetwork(roster []string) *transport.TCPNetwork {
	addrs := make(map[string]string, len(roster)+len(sessionIDs))
	for _, id := range roster {
		addrs[id] = "127.0.0.1:0"
	}
	for _, id := range sessionIDs {
		addrs[id] = "127.0.0.1:0"
	}
	return transport.NewTCPNetwork(addrs)
}

// setupTimes splits one set-up into its provisioning and deploy parts.
type setupTimes struct {
	bootstrap, deploy time.Duration
}

// startSystem provisions fresh key material and deploys a durable
// cluster in dataDir with two writer sessions and an auditor.
func startSystem(ctx context.Context, part *logmodel.Partition, dataDir string) (*system, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	boot, err := cluster.NewBootstrap(rand.Reader, part, mathx.Oakley768, cluster.BootstrapOptions{})
	if err != nil {
		return nil, st, fmt.Errorf("bootstrap: %w", err)
	}
	st.bootstrap = time.Since(t0)
	t1 := time.Now()
	s := &system{part: part, boot: boot, dataDir: dataDir}
	if err := s.deploy(); err != nil {
		return nil, st, err
	}
	st.deploy = time.Since(t1)
	for i, id := range sessionIDs[:2] {
		tk, err := boot.Issuer.Issue("T"+id, id, ticket.OpWrite, ticket.OpRead)
		if err != nil {
			s.close()
			return nil, st, err
		}
		c, err := s.openClient(id, tk)
		if err == nil {
			err = c.RegisterTicket(ctx)
		}
		if err != nil {
			s.close()
			return nil, st, fmt.Errorf("session %d: %w", i, err)
		}
		s.users = append(s.users, c)
		s.tickets = append(s.tickets, tk)
	}
	if s.aud, err = s.dep.NewAuditor(ctx, sessionIDs[2], "Taud"); err != nil {
		s.close()
		return nil, st, fmt.Errorf("auditor: %w", err)
	}
	return s, st, nil
}

func (s *system) deploy() error {
	dep, err := core.Deploy(core.Options{
		Partition: s.part,
		Group:     mathx.Oakley768,
		Material:  s.boot,
		Network:   tcpNetwork(s.boot.Roster),
		DataDir:   s.dataDir,
	})
	if err != nil {
		return fmt.Errorf("deploy: %w", err)
	}
	s.dep = dep
	return nil
}

// openClient attaches a session endpoint carrying an already-issued
// ticket; registration is the caller's choice because a redeployed
// cluster already knows the ticket from its journal.
func (s *system) openClient(id string, tk *ticket.Ticket) (*cluster.Client, error) {
	ep, err := s.dep.Network().Endpoint(id)
	if err != nil {
		return nil, err
	}
	mb := transport.NewMailbox(ep)
	c, err := cluster.OpenClient(mb, cluster.ClientConfig{
		Roster:      s.boot.Roster,
		Partition:   s.boot.Partition,
		Accumulator: s.boot.AccParams,
		Ticket:      tk,
	})
	if err != nil {
		mb.Close() //nolint:errcheck
		return nil, err
	}
	s.mbs = append(s.mbs, mb)
	return c, nil
}

// redeploy closes the cluster and deploys it again over the same data
// directories and key material, returning once every node has replayed
// its journal and serves a read of probe through the reopened writer
// sessions.
func (s *system) redeploy(ctx context.Context, probe logmodel.GLSN, owner int) (time.Duration, error) {
	s.close()
	t0 := time.Now()
	if err := s.deploy(); err != nil {
		return 0, err
	}
	s.users = s.users[:0]
	for i, tk := range s.tickets {
		c, err := s.openClient(sessionIDs[i], tk)
		if err != nil {
			return 0, fmt.Errorf("reopen session %d: %w", i, err)
		}
		s.users = append(s.users, c)
	}
	if _, err := s.users[owner].Read(ctx, probe); err != nil {
		return 0, fmt.Errorf("first read after redeploy: %w", err)
	}
	return time.Since(t0), nil
}

func (s *system) close() {
	for _, mb := range s.mbs {
		mb.Close() //nolint:errcheck // endpoint teardown
	}
	s.mbs = nil
	if s.dep != nil {
		s.dep.Close() //nolint:errcheck // shutdown flush is best effort; replay checks the journals
		s.dep = nil
	}
	s.aud = nil
}

// node returns a running node of the cluster.
func (s *system) node(id string) *cluster.Node {
	n, _ := s.dep.Node(id)
	return n
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// freshDir removes and recreates dir.
func freshDir(dir string) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	return os.MkdirAll(dir, 0o755)
}
