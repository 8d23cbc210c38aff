// Decision-support workload: the stability argument of the paper's Table 1.
//
// Correlated execution — the leading pre-magic technique for complex SQL —
// is fast when few bindings reach a view but collapses when many rows
// re-trigger an expensive view. The magic-sets transformation stays good in
// both regimes, and its cost-comparison guarantee means it never does worse
// than the original plan. This example runs three queries spanning the
// regimes over a sales schema and prints normalized elapsed times exactly
// like the paper's Table 1.
//
// Run with: go run ./examples/decisionsupport
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"starmagic"
)

func main() {
	db := starmagic.Open()
	db.MustExec(`
	CREATE TABLE store (storeid INT, city VARCHAR(20), tier INT, PRIMARY KEY (storeid));
	CREATE TABLE receipt (rid INT, storeid INT, total FLOAT, PRIMARY KEY (rid));
	-- NOTE: no index on receipt.storeid: per-binding re-evaluation of the
	-- view below costs a full scan, the regime where correlation collapses.
	CREATE VIEW storeRevenue (storeid, revenue, receipts) AS
	  SELECT storeid, SUM(total), COUNT(*) FROM receipt GROUPBY storeid;
	`)

	var stores, receipts []starmagic.Row
	rid := int64(0)
	for s := 1; s <= 120; s++ {
		stores = append(stores, starmagic.Row{
			starmagic.Int(int64(s)),
			starmagic.String(fmt.Sprintf("City%02d", s%30)),
			starmagic.Int(int64(s % 5)),
		})
		for r := 0; r < 120; r++ {
			rid++
			receipts = append(receipts, starmagic.Row{
				starmagic.Int(rid),
				starmagic.Int(int64(s)),
				starmagic.Float(float64((rid*13)%997) / 10),
			})
		}
	}
	must(db.InsertRows("store", stores))
	must(db.InsertRows("receipt", receipts))
	db.Analyze()

	queries := []struct {
		name, sql, regime string
	}{
		{
			name: "narrow",
			sql: `SELECT s.city, v.revenue FROM store s, storeRevenue v
			      WHERE s.storeid = v.storeid AND s.storeid = 42`,
			regime: "one binding: correlation and magic both excellent",
		},
		{
			name: "several",
			sql: `SELECT s.city, v.revenue FROM store s, storeRevenue v
			      WHERE s.storeid = v.storeid AND s.storeid < 8`,
			regime: "a few bindings x full-scan view: correlation collapses",
		},
		{
			name: "wide",
			sql: `SELECT s.city, v.revenue FROM store s, storeRevenue v
			      WHERE s.storeid = v.storeid AND s.tier = 2`,
			regime: "a quarter of all stores: magic falls back gracefully",
		},
	}

	fmt.Printf("%-9s %12s %12s %12s   (Original = 100)\n", "query", "Original", "Correlated", "EMST")
	for _, q := range queries {
		base := run(db, q.sql, starmagic.StrategyOriginal)
		corr := run(db, q.sql, starmagic.StrategyCorrelated)
		emst := run(db, q.sql, starmagic.StrategyEMST)
		fmt.Printf("%-9s %12.2f %12.2f %12.2f   %s\n", q.name,
			100.0,
			100*corr.Seconds()/base.Seconds(),
			100*emst.Seconds()/base.Seconds(),
			q.regime)
	}
}

// run prepares once and returns the fastest of three executions.
func run(db *starmagic.DB, query string, s starmagic.Strategy) time.Duration {
	p, err := db.PrepareContext(context.Background(), query, starmagic.WithStrategy(s))
	if err != nil {
		log.Fatal(err)
	}
	best := time.Hour
	for i := 0; i < 3; i++ {
		start := time.Now()
		if _, err := p.Execute(); err != nil {
			log.Fatal(err)
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
