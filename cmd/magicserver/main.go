// Command magicserver serves a starmagic database over the MySQL
// client/server protocol, so any stock MySQL client can connect:
//
//	magicserver -addr :3306 -init schema.sql -user root -password secret
//	mysql -h 127.0.0.1 -P 3306 -u root -psecret
//
// The server is a thin shell over internal/wire: one database — in-memory
// by default, durable when -data names a directory (write-ahead logged,
// checkpointed, recovered on start; -durability picks the fsync policy) —
// optionally seeded from an -init SQL script, with the engine's resource
// controls (memory governor, admission queue) exposed as flags.
// SIGINT/SIGTERM shut it down gracefully: the listener closes, in-flight
// query contexts are cancelled, connection goroutines drain, and the
// write-ahead log is flushed and closed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"starmagic"
	"starmagic/internal/wire"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:3306", "listen address")
		dataDir       = flag.String("data", "", "data directory for a durable database (empty = in-memory)")
		durability    = flag.String("durability", "commit", "commit fsync policy: commit, interval, or never (-data only)")
		initFile      = flag.String("init", "", "SQL script to run at startup (DDL/INSERT)")
		user          = flag.String("user", "", "required username (empty accepts any)")
		password      = flag.String("password", "", "required password (empty accepts none)")
		memPerQuery   = flag.Int64("mem-per-query", 0, "per-query memory budget in bytes (0 = unlimited)")
		memTotal      = flag.Int64("mem-total", 0, "total memory budget across queries in bytes (0 = unlimited)")
		maxConcurrent = flag.Int("max-concurrent", 0, "max concurrently executing queries (0 = unlimited)")
		maxQueue      = flag.Int("max-queue", 64, "max queries waiting for an execution slot")
		maxConns      = flag.Int("max-conns", 0, "max concurrent client connections (0 = unlimited)")
		metricsDump   = flag.Bool("metrics", false, "dump engine and wire metrics as JSON on shutdown")
	)
	flag.Parse()

	var db *starmagic.DB
	if *dataDir != "" {
		var err error
		db, err = starmagic.OpenDir(*dataDir)
		if err != nil {
			log.Fatalf("magicserver: %v", err)
		}
		switch *durability {
		case "commit":
			db.SetDurability(starmagic.SyncCommit)
		case "interval":
			db.SetDurability(starmagic.SyncInterval)
		case "never":
			db.SetDurability(starmagic.SyncNever)
		default:
			log.Fatalf("magicserver: unknown -durability %q (want commit, interval, or never)", *durability)
		}
		d, n := db.RecoveryStats()
		log.Printf("magicserver: data dir %s recovered (%d log records in %s)", *dataDir, n, d)
	} else {
		db = starmagic.Open()
	}
	if *initFile != "" {
		script, err := os.ReadFile(*initFile)
		if err != nil {
			log.Fatalf("magicserver: %v", err)
		}
		n, err := db.Exec(string(script))
		if err != nil {
			log.Fatalf("magicserver: init script: %v", err)
		}
		db.Analyze()
		log.Printf("magicserver: init script loaded %d rows", n)
	}
	db.SetMemoryLimit(*memPerQuery, *memTotal)
	db.SetAdmission(*maxConcurrent, *maxQueue)

	srv := wire.NewServer(db, wire.Config{
		User:     *user,
		Password: *password,
		MaxConns: *maxConns,
	})

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		s := <-sigs
		log.Printf("magicserver: %s, shutting down", s)
		srv.Close()
	}()

	log.Printf("magicserver: serving MySQL protocol on %s", *addr)
	if err := srv.ListenAndServe(*addr); err != nil {
		log.Fatalf("magicserver: %v", err)
	}
	if err := db.Close(); err != nil {
		log.Printf("magicserver: close: %v", err)
	}
	if *metricsDump {
		out, _ := json.MarshalIndent(map[string]any{
			"wire":   srv.Metrics(),
			"engine": db.Metrics(),
			"cache":  db.PlanCacheStats(),
		}, "", "  ")
		fmt.Println(string(out))
	}
	log.Printf("magicserver: stopped")
}
