//! The 17 TPC-D benchmark queries, rendered in the supported subset.
//!
//! TPC-D (Working Draft 6.0, 1993 — reference \[16\] of the paper) defines 17
//! decision-support queries. The paper's intro experiment runs all 17 on a
//! tuned 1 GB database and observes that creating relevant column statistics
//! changed the plan of all but two. Our versions keep each query's join
//! structure, selection predicates and GROUP BY, and flatten the features
//! outside the paper's SPJ+aggregation scope (subqueries, LIKE, IN-lists,
//! column-to-column comparisons) into equivalent simple predicates — the
//! paper's own techniques are only defined for this class (§4.1).

use query::{parse_statement, SelectStmt, Statement};

/// SQL text of Q1–Q17. Dates are days since 1970-01-01 (the generator's
/// domain is 8035..10440, i.e. 1992-01-01 through ~1998-08).
pub const TPCD_QUERY_SQL: [&str; 17] = [
    // Q1: pricing summary report
    "SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), \
            AVG(l_discount), COUNT(*) \
     FROM lineitem WHERE l_shipdate <= 10280 GROUP BY l_returnflag, l_linestatus",
    // Q2: minimum cost supplier (min-subquery flattened)
    "SELECT s_name, p_partkey FROM part, partsupp, supplier, nation, region \
     WHERE p_partkey = ps_partkey AND s_suppkey = ps_suppkey AND p_size = 15 \
       AND s_nationkey = n_nationkey AND n_regionkey = r_regionkey AND r_name = 'EUROPE'",
    // Q3: shipping priority
    "SELECT l_orderkey, SUM(l_extendedprice), o_orderdate \
     FROM customer, orders, lineitem \
     WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey AND l_orderkey = o_orderkey \
       AND o_orderdate < 8850 AND l_shipdate > 8850 \
     GROUP BY l_orderkey, o_orderdate",
    // Q4: order priority checking (EXISTS flattened to a join)
    "SELECT o_orderpriority, COUNT(*) FROM orders, lineitem \
     WHERE l_orderkey = o_orderkey AND o_orderdate >= 8900 AND o_orderdate < 8990 \
       AND l_receiptdate > 9000 \
     GROUP BY o_orderpriority",
    // Q5: local supplier volume
    "SELECT n_name, SUM(l_extendedprice) \
     FROM customer, orders, lineitem, supplier, nation, region \
     WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey AND l_suppkey = s_suppkey \
       AND c_nationkey = n_nationkey AND s_nationkey = n_nationkey \
       AND n_regionkey = r_regionkey AND r_name = 'ASIA' \
       AND o_orderdate >= 8400 AND o_orderdate < 8765 \
     GROUP BY n_name",
    // Q6: forecasting revenue change
    "SELECT SUM(l_extendedprice) FROM lineitem \
     WHERE l_shipdate >= 8400 AND l_shipdate < 8765 \
       AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24.0",
    // Q7: volume shipping (two nation roles)
    "SELECT n1.n_name, n2.n_name, SUM(l_extendedprice) \
     FROM supplier, lineitem, orders, customer, nation n1, nation n2 \
     WHERE s_suppkey = l_suppkey AND o_orderkey = l_orderkey AND c_custkey = o_custkey \
       AND s_nationkey = n1.n_nationkey AND c_nationkey = n2.n_nationkey \
       AND n1.n_name = 'NATION03' AND n2.n_name = 'NATION07' \
       AND l_shipdate BETWEEN 9131 AND 9861 \
     GROUP BY n1.n_name, n2.n_name",
    // Q8: national market share (8 relations)
    "SELECT n2.n_name, SUM(l_extendedprice) \
     FROM part, supplier, lineitem, orders, customer, nation n1, nation n2, region \
     WHERE p_partkey = l_partkey AND s_suppkey = l_suppkey AND l_orderkey = o_orderkey \
       AND o_custkey = c_custkey AND c_nationkey = n1.n_nationkey \
       AND n1.n_regionkey = r_regionkey AND r_name = 'AMERICA' \
       AND s_nationkey = n2.n_nationkey AND o_orderdate BETWEEN 9131 AND 9861 \
       AND p_type = 'ECONOMY POLISHED BRASS' \
     GROUP BY n2.n_name",
    // Q9: product type profit measure (LIKE flattened to brand equality)
    "SELECT n_name, SUM(l_extendedprice) \
     FROM part, supplier, lineitem, partsupp, orders, nation \
     WHERE s_suppkey = l_suppkey AND ps_suppkey = l_suppkey AND ps_partkey = l_partkey \
       AND p_partkey = l_partkey AND o_orderkey = l_orderkey AND s_nationkey = n_nationkey \
       AND p_brand = 'Brand#12' \
     GROUP BY n_name",
    // Q10: returned item reporting
    "SELECT c_custkey, SUM(l_extendedprice) \
     FROM customer, orders, lineitem, nation \
     WHERE c_custkey = o_custkey AND l_orderkey = o_orderkey \
       AND o_orderdate >= 8670 AND o_orderdate < 8760 AND l_returnflag = 'R' \
       AND c_nationkey = n_nationkey \
     GROUP BY c_custkey",
    // Q11: important stock identification
    "SELECT ps_partkey, SUM(ps_supplycost) FROM partsupp, supplier, nation \
     WHERE ps_suppkey = s_suppkey AND s_nationkey = n_nationkey AND n_name = 'NATION07' \
     GROUP BY ps_partkey",
    // Q12: shipping modes and order priority (IN-list flattened)
    "SELECT l_shipmode, COUNT(*) FROM orders, lineitem \
     WHERE o_orderkey = l_orderkey AND l_shipmode = 'MAIL' \
       AND l_receiptdate >= 8765 AND l_receiptdate < 9131 \
     GROUP BY l_shipmode",
    // Q13: customer distribution by priority
    "SELECT c_nationkey, COUNT(*) FROM customer, orders \
     WHERE c_custkey = o_custkey AND o_orderpriority = '1-URGENT' \
     GROUP BY c_nationkey",
    // Q14: promotion effect
    "SELECT SUM(l_extendedprice) FROM lineitem, part \
     WHERE l_partkey = p_partkey AND l_shipdate >= 8800 AND l_shipdate < 8830 \
       AND p_type = 'PROMO BURNISHED COPPER'",
    // Q15: top supplier (view flattened)
    "SELECT s_suppkey, SUM(l_extendedprice) FROM supplier, lineitem \
     WHERE s_suppkey = l_suppkey AND l_shipdate >= 9100 AND l_shipdate < 9190 \
     GROUP BY s_suppkey",
    // Q16: parts/supplier relationship
    "SELECT p_brand, p_type, COUNT(*) FROM partsupp, part \
     WHERE p_partkey = ps_partkey AND p_brand <> 'Brand#5' \
       AND p_size BETWEEN 1 AND 15 \
     GROUP BY p_brand, p_type",
    // Q17: small-quantity-order revenue (avg-subquery flattened)
    "SELECT SUM(l_extendedprice) FROM lineitem, part \
     WHERE p_partkey = l_partkey AND p_brand = 'Brand#3' \
       AND p_container = 'MED BOX' AND l_quantity < 5.0",
];

/// Parse and return the 17 TPC-D queries (the `TPCD-ORIG` workload of §8).
pub fn tpcd_benchmark_queries() -> Vec<SelectStmt> {
    TPCD_QUERY_SQL
        .iter()
        .map(|sql| match parse_statement(sql) {
            Ok(Statement::Select(q)) => q,
            Ok(_) => unreachable!("TPC-D queries are SELECTs"),
            Err(e) => panic!("TPC-D query failed to parse: {e}\n{sql}"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tpcd::{build_tpcd, TpcdConfig};
    use query::{bind_statement, BoundStatement, Statement};

    #[test]
    fn all_17_parse() {
        assert_eq!(tpcd_benchmark_queries().len(), 17);
    }

    #[test]
    fn all_17_bind_against_generated_schema() {
        let db = build_tpcd(&TpcdConfig::default());
        for (i, q) in tpcd_benchmark_queries().into_iter().enumerate() {
            let bound = bind_statement(&db, &Statement::Select(q))
                .unwrap_or_else(|e| panic!("Q{} failed to bind: {e}", i + 1));
            let BoundStatement::Select(b) = bound else {
                panic!()
            };
            assert!(!b.relations.is_empty());
        }
    }

    #[test]
    fn q8_joins_eight_relations() {
        let db = build_tpcd(&TpcdConfig::default());
        let q = tpcd_benchmark_queries().remove(7);
        let BoundStatement::Select(b) = bind_statement(&db, &Statement::Select(q)).unwrap() else {
            panic!()
        };
        assert_eq!(b.relations.len(), 8);
        assert!(b.join_edges.len() >= 6);
    }

    #[test]
    fn queries_have_relevant_columns() {
        let db = build_tpcd(&TpcdConfig::default());
        for q in tpcd_benchmark_queries() {
            let BoundStatement::Select(b) = bind_statement(&db, &Statement::Select(q)).unwrap()
            else {
                panic!()
            };
            assert!(!b.relevant_columns().is_empty());
        }
    }
}
