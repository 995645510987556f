package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	quest "repro"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/relational"
	"repro/internal/serve"
	"repro/internal/shard"
	"repro/internal/transport"
	"repro/internal/wal"
	"repro/internal/wrapper"
)

// Deployment shapes the workloads run against.
type shapeKind int

const (
	shapeSingle    shapeKind = iota // questd over quest.Open: one process, one database
	shapeRemote                     // questd over quest.OpenRemote: shard servers on loopback TCP
	shapeRemoteWAL                  // shapeRemote with a write-ahead log per shard
)

const (
	// imdbScale sizes the dataset: 2,400 movies, 1,600 people.
	imdbScale = 8
	// shardCount is the remote fleet's size.
	shardCount = 3
	// snapshotEvery is the WAL checkpoint interval in ops per shard, small
	// enough that every shard checkpoints several times in a run.
	snapshotEvery = 40
)

// engineOptions are the served engine's options: questd's defaults
// (query cache 256 entries, Steiner memo 512 entries) with PruneEmpty on.
func engineOptions() core.Options {
	opts := quest.Defaults()
	opts.PruneEmpty = true
	return opts
}

// deployment is one stood-up questd: the engine over its shape, the shard
// fleet behind it for the remote shapes, and the HTTP front door.
type deployment struct {
	eng     *core.Engine
	api     *serve.Server
	base    string // http://host:port of the front door
	sharded *shard.ShardedSource
	clients []*transport.Client
	servers []*transport.Server
	dbs     []*relational.Database // the databases queries execute on: the single database or each shard's
	logs    []*wal.Log
	walDirs []string
	walOpt  wal.Options

	hs        *http.Server
	listeners []net.Listener
	wg        sync.WaitGroup // serving goroutines
	closeOnce sync.Once
}

// deploy builds the dataset and stands questd up over the given shape,
// returning once the front door answers. With tr non-nil the engine's
// source, each shard backend and each shard server's backend are wrapped
// in tracing decorators (off until tr.on is set).
func deploy(kind shapeKind, dataSeed int64, walRoot string, tr *tracer) (*deployment, error) {
	db := datasets.IMDB(datasets.Config{Seed: dataSeed, Scale: imdbScale})
	d := &deployment{}
	var src wrapper.Source
	switch kind {
	case shapeSingle:
		d.dbs = []*relational.Database{db}
		full := wrapper.NewFullAccessSource(db)
		src = full
		if tr != nil {
			src = &tracedFull{in: full, tr: tr, level: levelSource, shard: -1}
		}
	case shapeRemote, shapeRemoteWAL:
		if err := d.startFleet(db, kind == shapeRemoteWAL, walRoot, tr); err != nil {
			d.close()
			return nil, err
		}
		src = d.sharded
		if tr != nil {
			src = &tracedSharded{in: d.sharded, tr: tr}
		}
	}
	d.eng = core.NewEngine(src, engineOptions())
	// Rate limiting is off: the generator is one tenant standing in for
	// many users. Every other serving option keeps questd's default.
	d.api = serve.New(d.eng, serve.Options{TenantRate: -1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, fmt.Errorf("front door listen: %w", err)
	}
	d.base = "http://" + l.Addr().String()
	d.hs = &http.Server{Handler: d.api, ReadHeaderTimeout: 10 * time.Second}
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		_ = d.hs.Serve(l) // returns http.ErrServerClosed on close
	}()
	if err := d.ready(); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// startFleet partitions db over shardCount shard servers on loopback TCP
// listeners and dials them the way quest.OpenRemote does, with PK hash
// routing declared.
func (d *deployment) startFleet(db *relational.Database, withWAL bool, walRoot string, tr *tracer) error {
	parts, err := shard.Partition(db, shardCount)
	if err != nil {
		return err
	}
	// fsync is off: the WAL's write path and snapshots still run, but a
	// shared machine's disk would otherwise set the insert latency.
	d.walOpt = wal.Options{NoFsync: true, SnapshotEvery: snapshotEvery}
	var addrs []string
	for i, part := range parts {
		execDB := part
		var lg *wal.Log
		if withWAL {
			dir := filepath.Join(walRoot, fmt.Sprintf("shard-%d", i))
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
			l, rec, err := wal.Open(dir, part, d.walOpt)
			if err != nil {
				return fmt.Errorf("shard %d wal: %w", i, err)
			}
			lg, execDB = l, rec.DB
			d.logs = append(d.logs, l)
			d.walDirs = append(d.walDirs, dir)
		}
		d.dbs = append(d.dbs, execDB)
		full := wrapper.NewFullAccessSource(execDB)
		var backend wrapper.SourceExecutor = full
		if tr != nil {
			backend = &tracedFull{in: full, tr: tr, level: levelServer, shard: i}
		}
		srv := transport.NewServer(backend)
		if lg != nil {
			srv.AttachWAL(lg)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("shard %d listen: %w", i, err)
		}
		d.servers = append(d.servers, srv)
		d.listeners = append(d.listeners, ln)
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			_ = srv.Serve(ln) // returns once the listener closes
		}()
		addrs = append(addrs, ln.Addr().String())
	}
	backends := make([]shard.Backend, len(addrs))
	for i, addr := range addrs {
		c, err := transport.Dial([]string{addr}, transport.Options{})
		if err != nil {
			return fmt.Errorf("dial shard %d: %w", i, err)
		}
		d.clients = append(d.clients, c)
		backends[i] = c
		if tr != nil {
			backends[i] = &tracedClient{in: c, tr: tr, shard: i}
		}
	}
	d.sharded = shard.NewFromBackends(db.Name, db.Schema, backends, shard.Options{AssumeHashRouting: true})
	return nil
}

// ready waits for the front door's health check.
func (d *deployment) ready() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		if err != nil {
			return err
		}
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("front door never became ready: %v", err)
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// quiesce waits for the coordinator's straggling existence probes and
// the shard servers' in-flight requests to finish.
func (d *deployment) quiesce() {
	if d.sharded != nil {
		d.sharded.Quiesce()
	}
	for _, s := range d.servers {
		s.Quiesce()
	}
}

// stopServing closes the front door and the fleet's connections and
// listeners and waits for the serving goroutines; the WAL logs stay open.
func (d *deployment) stopServing() {
	if d.hs != nil {
		_ = d.hs.Close()
	}
	if d.sharded != nil {
		_ = d.sharded.Close() // closes the transport clients
	} else {
		for _, c := range d.clients {
			_ = c.Close()
		}
	}
	for _, ln := range d.listeners {
		_ = ln.Close()
	}
	for _, s := range d.servers {
		s.Quiesce()
	}
	d.wg.Wait()
	http.DefaultClient.CloseIdleConnections()
}

// close tears the deployment down and removes its WAL directories.
func (d *deployment) close() {
	d.closeOnce.Do(func() {
		d.stopServing()
		for _, l := range d.logs {
			_ = l.Close()
		}
		for _, dir := range d.walDirs {
			_ = os.RemoveAll(dir)
		}
	})
}

// recoverShards stops the deployment, reopens every shard's WAL directory
// and returns the rows each recovery holds for table.
func (d *deployment) recoverShards(table string) ([][]relational.Row, error) {
	if len(d.walDirs) == 0 {
		return nil, errors.New("deployment has no write-ahead logs")
	}
	d.stopServing()
	var errs []error
	for _, l := range d.logs {
		errs = append(errs, l.Close())
	}
	d.logs = nil
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("closing shard logs: %w", err)
	}
	out := make([][]relational.Row, len(d.walDirs))
	for i, dir := range d.walDirs {
		base, err := relational.NewDatabase(d.dbs[i].Name, d.dbs[i].Schema)
		if err != nil {
			return nil, err
		}
		l, rec, err := wal.Open(dir, base, d.walOpt)
		if err != nil {
			return nil, fmt.Errorf("reopening shard %d wal: %w", i, err)
		}
		out[i] = rec.DB.Table(table).Rows()
		if err := l.Close(); err != nil {
			return nil, fmt.Errorf("closing reopened shard %d wal: %w", i, err)
		}
	}
	return out, nil
}
