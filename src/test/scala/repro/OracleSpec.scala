package repro

import org.apache.spark.sql.functions._

/** The DuckDB oracle itself: it must accept a correct Spark aggregation over
  * the social substrate's tables and reject wrong rows or columns.
  */
class OracleSpec extends SparkSpec {

  private lazy val edges = SynthSocial.rawEdges(spark, 200, 1000, seed = 5).localCheckpoint(true)

  test("Oracle validates a Spark aggregation over SynthSocial edges against DuckDB") {
    val got = edges.groupBy("src")
      .agg(count(lit(1)).as("cnt"), max("w").as("wmax"), min("dst").as("first_dst"))
    Oracle.assertEquivalent(
      got,
      """SELECT src, COUNT(*) AS cnt, MAX(CAST(w AS DOUBLE)) AS wmax,
        |       MIN(CAST(dst AS BIGINT)) AS first_dst
        |FROM edges GROUP BY src""".stripMargin,
      "edges" -> edges)
  }

  test("Oracle rejects a wrong aggregation (the oracle actually bites)") {
    val wrong = edges.groupBy("src")
      .agg((count(lit(1)) + 1).as("cnt")) // off by one
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong,
        "SELECT src, COUNT(*) AS cnt FROM edges GROUP BY src",
        "edges" -> edges)
    }
  }

  test("Oracle rejects mismatched column sets") {
    val df = edges.limit(10).select(col("src").as("a"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(df, "SELECT src AS b FROM edges", "edges" -> edges)
    }
  }
}
