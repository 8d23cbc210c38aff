// TPC-D-flavored decision support. The paper's conclusions point directly
// at this workload: "much effort has been spent to optimize TPCD benchmark
// queries by hand in order to achieve better performance. The magic-sets
// transformation provides an opportunity to optimize decision support
// queries in a stable manner."
//
// This example loads a miniature TPC-D-like schema (region → nation →
// customer/supplier → orders → lineitem), defines summary views the way
// analysts do (revenue per customer, volume per nation), and runs three
// hand-written decision-support queries under Original / Correlated / EMST.
// Magic pushes the region/nation filters through the summary views instead
// of materializing them for the whole world — no hand-optimization needed.
//
// Run with: go run ./examples/tpcd
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"starmagic"
)

const schema = `
CREATE TABLE region (regionkey INT, rname VARCHAR(20), PRIMARY KEY (regionkey));
CREATE TABLE nation (nationkey INT, nname VARCHAR(20), regionkey INT, PRIMARY KEY (nationkey));
CREATE TABLE customer (custkey INT, cname VARCHAR(20), nationkey INT, acctbal FLOAT, PRIMARY KEY (custkey));
CREATE INDEX cust_nation ON customer (nationkey);
CREATE TABLE orders (orderkey INT, custkey INT, odate INT, PRIMARY KEY (orderkey));
CREATE INDEX ord_cust ON orders (custkey);
CREATE TABLE lineitem (orderkey INT, linenumber INT, qty FLOAT, price FLOAT, discount FLOAT,
  PRIMARY KEY (orderkey, linenumber));
CREATE INDEX li_order ON lineitem (orderkey);

-- Revenue per order (sum of discounted line prices).
CREATE VIEW orderRevenue (orderkey, revenue) AS
  SELECT orderkey, SUM(price * (1 - discount)) FROM lineitem GROUPBY orderkey;

-- Revenue per customer, built on the view above.
CREATE VIEW custRevenue (custkey, revenue, norders) AS
  SELECT o.custkey, SUM(v.revenue), COUNT(*)
  FROM orders o, orderRevenue v WHERE o.orderkey = v.orderkey
  GROUPBY o.custkey;

-- Revenue per nation, another level up.
CREATE VIEW nationRevenue (nationkey, revenue) AS
  SELECT c.nationkey, SUM(v.revenue)
  FROM customer c, custRevenue v WHERE c.custkey = v.custkey
  GROUPBY c.nationkey;
`

func main() {
	db := starmagic.Open()
	db.MustExec(schema)
	load(db)

	queries := []struct{ name, sql string }{
		{
			name: "Q1: big customers of one nation",
			sql: `SELECT c.cname, v.revenue, v.norders
			      FROM nation n, customer c, custRevenue v
			      WHERE n.nname = 'FRANCE' AND c.nationkey = n.nationkey
			        AND c.custkey = v.custkey AND v.revenue > 5000`,
		},
		{
			name: "Q2: revenue of one region's nations",
			sql: `SELECT n.nname, v.revenue
			      FROM region r, nation n, nationRevenue v
			      WHERE r.rname = 'EUROPE' AND n.regionkey = r.regionkey
			        AND n.nationkey = v.nationkey`,
		},
		{
			name: "Q3: orders of customers above their nation's average balance",
			sql: `SELECT c.cname, v.revenue
			      FROM nation n, customer c, custRevenue v
			      WHERE n.nname = 'CHINA' AND c.nationkey = n.nationkey
			        AND c.custkey = v.custkey
			        AND c.acctbal > (SELECT AVG(c2.acctbal) FROM customer c2
			                         WHERE c2.nationkey = c.nationkey)`,
		},
	}

	fmt.Printf("%-55s %10s %12s %10s   rows\n", "query", "Original", "Correlated", "EMST")
	for _, q := range queries {
		var times [3]time.Duration
		var rows int
		for i, s := range []starmagic.Strategy{
			starmagic.StrategyOriginal, starmagic.StrategyCorrelated, starmagic.StrategyEMST,
		} {
			p, err := db.PrepareContext(context.Background(), q.sql, starmagic.WithStrategy(s))
			if err != nil {
				log.Fatalf("%s: %v", q.name, err)
			}
			best := time.Hour
			for r := 0; r < 3; r++ {
				start := time.Now()
				res, err := p.Execute()
				if err != nil {
					log.Fatalf("%s: %v", q.name, err)
				}
				if d := time.Since(start); d < best {
					best = d
				}
				rows = len(res.Rows)
			}
			times[i] = best
		}
		base := times[0].Seconds()
		fmt.Printf("%-55s %10.2f %12.2f %10.2f   %d\n", q.name,
			100.0, 100*times[1].Seconds()/base, 100*times[2].Seconds()/base, rows)
	}
	fmt.Println("\n(Original = 100; magic pushes the region/nation filter through the")
	fmt.Println(" view stack instead of summarizing every customer on the planet.)")
}

func load(db *starmagic.DB) {
	rng := rand.New(rand.NewSource(7))
	regions := []string{"EUROPE", "ASIA", "AMERICA", "AFRICA", "OCEANIA", "ANTARCTICA"}
	nations := []string{
		"FRANCE", "GERMANY", "ITALY", "CHINA", "JAPAN", "INDIA",
		"BRAZIL", "CANADA", "PERU", "EGYPT", "KENYA", "MOROCCO",
		"AUSTRALIA", "FIJI", "SAMOA", "NORWAY", "SPAIN", "POLAND",
	}

	var rr, nn, cc, oo, ll []starmagic.Row
	for i, r := range regions {
		rr = append(rr, starmagic.Row{starmagic.Int(int64(i)), starmagic.String(r)})
	}
	for i, n := range nations {
		nn = append(nn, starmagic.Row{
			starmagic.Int(int64(i)), starmagic.String(n), starmagic.Int(int64(i % 6)),
		})
	}
	orderkey := int64(0)
	for c := int64(0); c < 1800; c++ {
		cc = append(cc, starmagic.Row{
			starmagic.Int(c),
			starmagic.String(fmt.Sprintf("cust%04d", c)),
			starmagic.Int(c % int64(len(nations))),
			starmagic.Float(float64(rng.Intn(10000)) / 10),
		})
		for o := 0; o < 4; o++ {
			orderkey++
			oo = append(oo, starmagic.Row{
				starmagic.Int(orderkey), starmagic.Int(c), starmagic.Int(int64(1992 + rng.Intn(7))),
			})
			for l := 1; l <= 3; l++ {
				ll = append(ll, starmagic.Row{
					starmagic.Int(orderkey), starmagic.Int(int64(l)),
					starmagic.Float(float64(1 + rng.Intn(50))),
					starmagic.Float(float64(rng.Intn(100000)) / 100),
					starmagic.Float(float64(rng.Intn(10)) / 100),
				})
			}
		}
	}
	must(db.InsertRows("region", rr))
	must(db.InsertRows("nation", nn))
	must(db.InsertRows("customer", cc))
	must(db.InsertRows("orders", oo))
	must(db.InsertRows("lineitem", ll))
	db.Analyze()
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
