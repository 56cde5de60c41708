// Package cluster implements the DLA node (paper §2, Figure 2): the
// fragment storage engine, the replicated access-control table, the
// glsn sequencer, and the signed distributed-majority-agreement rounds
// the paper invokes for "trusted and reliable auditing".
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"time"

	"confaudit/internal/crypto/blind"
	"confaudit/internal/logmodel"
	"confaudit/internal/telemetry"
	"confaudit/internal/transport"
)

// Message types of the agreement subprotocol.
const (
	msgAgreeReq    = "agree.req"
	msgAgreeVote   = "agree.vote"
	msgAgreeCommit = "agree.commit"
)

// Errors reported by agreement.
var (
	// ErrNoQuorum indicates fewer than a majority of valid votes.
	ErrNoQuorum = errors.New("cluster: no quorum")
	// ErrBadCertificate indicates a certificate failing verification.
	ErrBadCertificate = errors.New("cluster: invalid certificate")
)

// Certificate proves that a majority of the cluster signed a statement.
type Certificate struct {
	// Statement is the agreed byte string.
	Statement []byte `json:"statement"`
	// Votes maps node ID to its signature over Statement.
	Votes map[string]*big.Int `json:"votes"`
}

// Quorum returns the majority threshold for n nodes.
func Quorum(n int) int { return n/2 + 1 }

// VerifyCertificate checks that at least quorum distinct known nodes
// signed the statement.
func VerifyCertificate(keys map[string]blind.PublicKey, quorum int, cert *Certificate) error {
	if cert == nil || len(cert.Statement) == 0 {
		return fmt.Errorf("%w: empty certificate", ErrBadCertificate)
	}
	valid := 0
	for node, sig := range cert.Votes {
		pub, known := keys[node]
		if !known {
			return fmt.Errorf("%w: vote from unknown node %q", ErrBadCertificate, node)
		}
		if err := blind.Verify(pub, cert.Statement, sig); err != nil {
			return fmt.Errorf("%w: bad signature from %q", ErrBadCertificate, node)
		}
		valid++
	}
	if valid < quorum {
		return fmt.Errorf("%w: %d of %d required votes", ErrNoQuorum, valid, quorum)
	}
	return nil
}

type agreeReqBody struct {
	Statement []byte `json:"statement"`
}

type agreeVoteBody struct {
	Sig *big.Int `json:"sig"`
	// Refused is set when the voter rejects the statement.
	Refused string `json:"refused,omitempty"`
}

type agreeCommitBody struct {
	Cert Certificate `json:"cert"`
}

// propose runs the coordinator side of one agreement round: broadcast
// the statement, gather signed votes until majority, and broadcast the
// commit certificate. The coordinator's own signature counts.
func (n *Node) propose(ctx context.Context, session string, statement []byte) (*Certificate, error) {
	defer telemetry.M.Histogram(telemetry.HistQuorumRound).Since(time.Now())
	ownSig, err := n.signer.Sign(statement)
	if err != nil {
		return nil, fmt.Errorf("cluster: signing proposal: %w", err)
	}
	cert := &Certificate{
		Statement: statement,
		Votes:     map[string]*big.Int{n.id: ownSig},
	}
	req := agreeReqBody{Statement: statement}
	quorum := Quorum(len(n.roster))
	refusals := 0
	for _, peer := range n.peers() {
		if err := n.send(ctx, peer, msgAgreeReq, session, &req); err != nil {
			// An unreachable peer cannot vote; treat it as a refusal so
			// a minority of dead nodes does not block the sequencer.
			refusals++
		}
	}
	for len(cert.Votes) < quorum {
		// Once too many peers refused, a quorum is unreachable.
		if refusals > len(n.roster)-quorum {
			return nil, fmt.Errorf("%w: %d refusals", ErrNoQuorum, refusals)
		}
		msg, err := n.mb.Expect(ctx, msgAgreeVote, session)
		if err != nil {
			return nil, fmt.Errorf("cluster: awaiting votes: %w", err)
		}
		var vote agreeVoteBody
		if err := transport.Unmarshal(msg.Payload, &vote); err != nil {
			return nil, err
		}
		if vote.Refused != "" {
			refusals++
			continue
		}
		pub, known := n.peerKeys[msg.From]
		if !known {
			continue // ignore votes from strangers
		}
		if err := blind.Verify(pub, statement, vote.Sig); err != nil {
			continue // ignore invalid signatures
		}
		cert.Votes[msg.From] = vote.Sig
	}
	commit := agreeCommitBody{Cert: *cert}
	for _, peer := range n.peers() {
		// Best effort: a node that misses the commit catches up through
		// the sync protocol when it next sees a proposal ahead of its
		// state.
		n.send(ctx, peer, msgAgreeCommit, session, &commit) //nolint:errcheck
	}
	return cert, nil
}

// --- follower catch-up sync ---

// Message types of the catch-up subprotocol.
const (
	msgSyncReq  = "seq.sync.req"
	msgSyncResp = "seq.sync.resp"
)

type syncReqBody struct {
	From logmodel.GLSN `json:"from"`
}

type syncGrant struct {
	GLSN     logmodel.GLSN `json:"glsn"`
	TicketID string        `json:"ticket_id"`
}

type syncRespBody struct {
	Grants []syncGrant `json:"grants"`
}

// serveSync answers catch-up requests on the leader: every grant at or
// past the requested glsn, in order.
func (n *Node) serveSync(ctx context.Context) {
	for {
		msg, err := n.mb.ExpectType(ctx, msgSyncReq)
		if err != nil {
			return
		}
		start := time.Now()
		var req syncReqBody
		if err := transport.Unmarshal(msg.Payload, &req); err != nil {
			continue
		}
		var resp syncRespBody
		for _, id := range n.acl.TicketIDs() {
			for _, g := range n.acl.Glsns(id) {
				if g >= req.From {
					resp.Grants = append(resp.Grants, syncGrant{GLSN: g, TicketID: id})
				}
			}
		}
		sort.Slice(resp.Grants, func(i, j int) bool { return resp.Grants[i].GLSN < resp.Grants[j].GLSN })
		err = n.send(ctx, msg.From, msgSyncResp, msg.Session, resp)
		n.observeGrantSync(telemetry.CtrGrantSyncServed, telemetry.HistGrantSyncServed, msg.From, req.From, len(resp.Grants), start, err)
	}
}

// observeGrantSync records one side of a grant-sync exchange: a
// counter, a µs-ladder duration, and a flight event naming the other
// party, the first requested glsn, and the grant count.
func (n *Node) observeGrantSync(ctr, hist, peer string, from logmodel.GLSN, grants int, start time.Time, err error) {
	d := time.Since(start)
	telemetry.M.Counter(ctr).Add(1)
	telemetry.M.Histogram(hist).Observe(d)
	telemetry.F.Record(telemetry.FlightEvent{
		Kind: telemetry.FlightGrantSync, Node: n.id, Peer: peer,
		GLSN: uint64(from), Count: grants,
		DurMS: float64(d.Microseconds()) / 1000, Outcome: telemetry.ErrClass(err),
	})
}

// syncFromLeader pulls missed grants from the leader and applies them.
func (n *Node) syncFromLeader(ctx context.Context) (err error) {
	if n.isLeader() {
		return nil
	}
	n.mu.RLock()
	from := n.nextGLSN
	n.mu.RUnlock()
	start := time.Now()
	grants := 0
	defer func() {
		n.observeGrantSync(telemetry.CtrGrantSync, telemetry.HistGrantSync, n.roster[0], from, grants, start, err)
	}()
	session := "sync/" + n.id + "/" + from.String()
	if err := n.send(ctx, n.roster[0], msgSyncReq, session, syncReqBody{From: from}); err != nil {
		return err
	}
	waitCtx, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	msg, err := n.mb.Expect(waitCtx, msgSyncResp, session)
	if err != nil {
		return err
	}
	var resp syncRespBody
	if err := transport.Unmarshal(msg.Payload, &resp); err != nil {
		return err
	}
	grants = len(resp.Grants)
	for _, g := range resp.Grants {
		if err := n.applyStatement(glsnStatement(g.GLSN, g.TicketID)); err != nil {
			return err
		}
	}
	return nil
}

// serveAgreement is the voter loop: validate incoming statements with
// the node's own state, vote, and apply committed certificates.
func (n *Node) serveAgreement(ctx context.Context) {
	for {
		msg, err := n.mb.ExpectType(ctx, msgAgreeReq)
		if err != nil {
			return
		}
		var req agreeReqBody
		if err := transport.Unmarshal(msg.Payload, &req); err != nil {
			continue
		}
		var vote agreeVoteBody
		if err := n.validateStatement(ctx, req.Statement); err != nil {
			vote.Refused = err.Error()
		} else {
			sig, err := n.signer.Sign(req.Statement)
			if err != nil {
				vote.Refused = err.Error()
			} else {
				vote.Sig = sig
			}
		}
		if err := n.send(ctx, msg.From, msgAgreeVote, msg.Session, &vote); err != nil {
			continue
		}
	}
}

// serveCommits applies certified statements.
func (n *Node) serveCommits(ctx context.Context) {
	for {
		msg, err := n.mb.ExpectType(ctx, msgAgreeCommit)
		if err != nil {
			return
		}
		var body agreeCommitBody
		if err := transport.Unmarshal(msg.Payload, &body); err != nil {
			continue
		}
		if err := VerifyCertificate(n.peerKeys, Quorum(len(n.roster)), &body.Cert); err != nil {
			continue
		}
		if err := n.applyStatement(body.Cert.Statement); errors.Is(err, errGLSNGap) {
			// Earlier commits were missed (partition, restart); pull
			// them from the leader, which also covers this statement.
			n.syncFromLeader(ctx) //nolint:errcheck // next commit retries
		}
	}
}
