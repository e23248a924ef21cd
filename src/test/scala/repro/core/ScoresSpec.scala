package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec, SynthSocial}

class ScoresSpec extends SparkSpec {
  import spark.implicits._

  // 3 candidates, 4 users; target = 0. Hand-computable preference matrix:
  //   user 0: b = (0.9, 0.5, 0.1) -> target rank 1
  //   user 1: b = (0.5, 0.9, 0.1) -> target rank 2
  //   user 2: b = (0.1, 0.5, 0.9) -> target rank 3
  //   user 3: b = (0.5, 0.5, 0.1) -> tie with cand 1: beta = 2
  private lazy val ops = Seq(
    (0L, 0, 0.9), (0L, 1, 0.5), (0L, 2, 0.1),
    (1L, 0, 0.5), (1L, 1, 0.9), (1L, 2, 0.1),
    (2L, 0, 0.1), (2L, 1, 0.5), (2L, 2, 0.9),
    (3L, 0, 0.5), (3L, 1, 0.5), (3L, 2, 0.1),
  ).toDF("node", "cand", "b").localCheckpoint(true)

  /** Reference scores: the per-score join + groupBy bodies of `exact` and
    * `byScenario` that the tally kernel replaced. Kept here only to pin the
    * kernel's semantics, including its inner joins: a ranked score counts a
    * user only where the target and at least one competitor are alive, and
    * Copeland compares a user with a competitor only where both are.
    */
  private object Reference {
    private def beta(bq: String, bx: String) =
      (sum(when(col(bx) >= col(bq), 1).otherwise(0)) + 1).as("beta")

    private def contrib(p: Int, weights: Seq[Double]) =
      when(col("beta") <= p, element_at(array(weights.map(lit): _*), col("beta").cast("int")))
        .otherwise(lit(0.0))

    def exact(s: VoteScore, ops: DataFrame, cand: Int): Double = {
      val tgt = ops.filter(col("cand") === cand).select(col("node"), col("b").as("bq"))
      val comp = ops.filter(col("cand") =!= cand)
        .select(col("node"), col("cand").as("x"), col("b").as("bx"))
      s match {
        case Cumulative =>
          ops.filter(col("cand") === cand).agg(sum("b")).head().getDouble(0)
        case PositionalPApproval(p, weights) =>
          tgt.join(comp, Seq("node")).groupBy("node").agg(beta("bq", "bx"))
            .agg(sum(contrib(p, weights))).head().getDouble(0)
        case RestrictedCumulative(nodes, factor) =>
          val row = ops.filter(col("cand") === cand).join(nodes, Seq("node")).agg(sum("b")).head()
          (if (row.isNullAt(0)) 0.0 else row.getDouble(0)) * factor
        case Copeland =>
          tgt.join(comp, Seq("node"))
            .groupBy("x")
            .agg(sum(when(col("bq") > col("bx"), 1).otherwise(0)).as("wins"),
                 sum(when(col("bq") < col("bx"), 1).otherwise(0)).as("losses"))
            .filter(col("wins") > col("losses"))
            .count().toDouble
      }
    }

    def byScenario(s: VoteScore, targetOps: DataFrame, compOps: DataFrame): DataFrame = {
      val comp = compOps.select(col("node"), col("cand").as("x"), col("b").as("bx"))
      s match {
        case Cumulative =>
          targetOps.groupBy("scen").agg(sum("b").as("score"))
        case PositionalPApproval(p, weights) =>
          targetOps.join(comp, Seq("node"))
            .groupBy("scen", "node").agg(beta("b", "bx"))
            .groupBy("scen").agg(sum(contrib(p, weights)).as("score"))
        case RestrictedCumulative(nodes, factor) =>
          targetOps.join(nodes, Seq("node"))
            .groupBy("scen").agg((sum("b") * factor).as("score"))
        case Copeland =>
          targetOps.join(comp, Seq("node"))
            .groupBy("scen", "x")
            .agg(sum(when(col("b") > col("bx"), 1).otherwise(0)).as("wins"),
                 sum(when(col("b") < col("bx"), 1).otherwise(0)).as("losses"))
            .groupBy("scen")
            .agg(sum(when(col("wins") > col("losses"), 1.0).otherwise(0.0)).as("score"))
      }
    }
  }

  private def scenarioMap(df: DataFrame): Map[Long, Double] =
    df.collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap

  // A SynthSocial instance's horizon opinions (n = 60, r = 4, t = 3), and a
  // copy with (node, cand) rows removed: scattered ones, and at every 13th
  // node all candidates but one, so some users have no competitor alive.
  private lazy val synthEdges = GraphOps.normalize(spark,
    SynthSocial.rawEdges(spark, 60, 240, seed = 41), 60).localCheckpoint(true)
  private lazy val synthProfile = SynthSocial.profile(spark, 60, 4, seed = 43).localCheckpoint(true)
  private lazy val synthOps =
    OpinionDiffusion.diffuse(synthEdges, synthProfile, 3).localCheckpoint(true)
  private lazy val holedOps =
    synthOps.filter((col("node") * 7 + col("cand") * 3) % 5 =!= 0 &&
      (col("node") % 13 =!= 0 || col("cand") === col("node") % 4)).localCheckpoint(true)

  private lazy val synthScores: Seq[VoteScore] = Seq(
    Cumulative, Plurality(4), PApproval(2, 4),
    PositionalPApproval(3, Seq(1.0, 0.7, 0.2, 0.0)), Copeland,
    RestrictedCumulative((0L until 60L by 3).toDF("node"), 0.5))

  test("exact kernel matches the reference joins for every score and target") {
    for (ops <- Seq(synthOps, holedOps); s <- synthScores; c <- 0 until 4) {
      val (got, want) = (s.exact(ops, c), Reference.exact(s, ops, c))
      assert(math.abs(got - want) < 1e-12, s"${s.name} cand=$c: $got vs $want")
    }
  }

  test("byScenario kernel matches the reference joins for every score") {
    val scen = (0L until 60L by 4).toDF("scen")
    val target = OpinionDiffusion.diffuseScenarios(synthEdges,
      synthProfile.filter(col("cand") === 0).select("node", "b0", "d"), scen, 3).localCheckpoint(true)
    val holedTarget = target.filter((col("scen") + col("node")) % 3 =!= 0).localCheckpoint(true)
    for ((tgt, ops) <- Seq(target -> synthOps, holedTarget -> holedOps); s <- synthScores) {
      val comp = ops.filter(col("cand") =!= 0)
      val got = scenarioMap(s.byScenario(tgt, comp))
      val want = scenarioMap(Reference.byScenario(s, tgt, comp))
      // Every scenario gets a row; one whose users all drop out of the
      // reference's inner joins has no reference row and scores 0.
      assert(got.keySet == tgt.select("scen").distinct().collect().map(_.getLong(0)).toSet, s.name)
      for ((w, v) <- got) {
        val ref = want.getOrElse(w, 0.0)
        assert(math.abs(v - ref) < 1e-12, s"${s.name} scen=$w: $v vs $ref")
      }
    }
  }

  test("kernel scores are bit-identical under 1 and 7 partitions") {
    val target = OpinionDiffusion.diffuseScenarios(synthEdges,
      synthProfile.filter(col("cand") === 1).select("node", "b0", "d"),
      (0L until 60L by 5).toDF("scen"), 3).localCheckpoint(true)
    val comp = holedOps.filter(col("cand") =!= 1)
    for (s <- synthScores) {
      val exact = Seq(1, 7).map(k => s.exact(holedOps.repartition(k), 1))
      assert(exact(0) == exact(1), s.name)
      val bys = Seq(1, 7).map(k => scenarioMap(s.byScenario(target.repartition(k), comp.repartition(k))))
      assert(bys(0) == bys(1), s.name)
    }
  }

  test("cumulative sums the target column") {
    assert(math.abs(Cumulative.exact(ops, 0) - 2.0) < 1e-12)
    assert(math.abs(Cumulative.exact(ops, 1) - 2.4) < 1e-12)
  }

  test("plurality counts strictly-top users (ties do not count)") {
    assert(Plurality(3).exact(ops, 0) == 1.0) // only user 0
    assert(Plurality(3).exact(ops, 1) == 1.0) // only user 1 (user 3 ties)
    assert(Plurality(3).exact(ops, 2) == 1.0) // only user 2
  }

  test("p-approval grows with p and counts tied ranks correctly") {
    assert(PApproval(1, 3).exact(ops, 0) == 1.0)
    assert(PApproval(2, 3).exact(ops, 0) == 3.0) // users 0,1 and tied user 3 (beta=2)
    assert(PApproval(3, 3).exact(ops, 0) == 4.0)
  }

  test("p-approval is monotonically non-decreasing in p") {
    val scores = (1 to 3).map(p => PApproval(p, 3).exact(ops, 0))
    assert(scores == scores.sorted)
  }

  test("positional-p-approval weights the rank positions") {
    val s = PositionalPApproval(2, Seq(1.0, 0.5, 0.0))
    // user0 rank1 -> 1.0, user1 rank2 -> 0.5, user3 rank2 -> 0.5, user2 rank3 -> 0.
    assert(math.abs(s.exact(ops, 0) - 2.0) < 1e-12)
  }

  test("positional-p-approval with w[p]=0 equals (p-1)-approval (§VIII-C)") {
    val zeroTail = PositionalPApproval(2, Seq(1.0, 0.0, 0.0))
    assert(zeroTail.exact(ops, 0) == PApproval(1, 3).exact(ops, 0))
    val oneTail = PositionalPApproval(2, Seq(1.0, 1.0, 1.0))
    assert(oneTail.exact(ops, 0) == PApproval(2, 3).exact(ops, 0))
  }

  test("positional weights must be non-increasing and within [0,1]") {
    intercept[IllegalArgumentException](PositionalPApproval(2, Seq(0.5, 1.0)))
    intercept[IllegalArgumentException](PositionalPApproval(2, Seq(1.5, 1.0)))
    intercept[IllegalArgumentException](PositionalPApproval(0, Seq(1.0)))
  }

  test("positional-p-approval needs at least p weights") {
    intercept[IllegalArgumentException](PositionalPApproval(3, Seq(1.0)))
    intercept[IllegalArgumentException](PApproval(4, 3))
    assert(PositionalPApproval(1, Seq(1.0)).p == 1)
  }

  test("Copeland counts strict one-on-one majority wins") {
    // 0 vs 1: wins {0}, losses {1,2} -> loses. 0 vs 2: wins {0,1,3}, losses {2} -> wins.
    assert(Copeland.exact(ops, 0) == 1.0)
    // 1 vs 0: wins 2, losses 1 -> wins; 1 vs 2: wins {0,1,3} -> wins: Condorcet winner.
    assert(Copeland.exact(ops, 1) == 2.0)
    assert(Copeland.exact(ops, 2) == 0.0)
  }

  test("Copeland score is bounded by r-1") {
    (0 to 2).foreach(c => assert(Copeland.exact(ops, c) <= 2.0))
  }

  test("plurality scores across candidates sum to at most n") {
    val tot = (0 to 2).map(c => Plurality(3).exact(ops, c)).sum
    assert(tot <= 4.0)
  }

  test("RestrictedCumulative restricts and scales") {
    val nodes = Seq(0L, 1L).toDF("node")
    val s = RestrictedCumulative(nodes, 0.5)
    assert(math.abs(s.exact(ops, 0) - 0.5 * (0.9 + 0.5)) < 1e-12)
  }

  test("RestrictedCumulative on an empty node set is 0") {
    val s = RestrictedCumulative(Seq.empty[Long].toDF("node"), 1.0)
    assert(s.exact(ops, 0) == 0.0)
  }

  test("byScenario agrees with exact for every score") {
    // Treat the exact target opinions as a single scenario.
    val targetOps = ops.filter(col("cand") === 0)
      .select(lit(7L).as("scen"), col("node"), col("b"))
    val compOps = ops.filter(col("cand") =!= 0)
    val scores: Seq[VoteScore] = Seq(
      Cumulative, Plurality(3), PApproval(2, 3),
      PositionalPApproval(2, Seq(1.0, 0.5, 0.0)), Copeland)
    for (s <- scores) {
      val bys = s.byScenario(targetOps, compOps).collect()
      assert(bys.length == 1 && bys.head.getLong(0) == 7L)
      assert(math.abs(bys.head.getDouble(1) - s.exact(ops, 0)) < 1e-12, s.name)
    }
  }

  test("cumulative matches DuckDB") {
    val got = ops.filter(col("cand") === 0).agg(round(sum("b"), 6).as("score"))
    Oracle.assertEquivalent(got,
      "SELECT ROUND(SUM(CAST(b AS DOUBLE)), 6) AS score FROM ops WHERE CAST(cand AS INT) = 0",
      "ops" -> ops)
  }

  test("plurality matches DuckDB") {
    val got = Seq(Plurality(3).exact(ops, 0)).toDF("score")
    Oracle.assertEquivalent(got,
      """SELECT CAST(COUNT(*) AS DOUBLE) AS score FROM (
        |  SELECT t.node FROM ops t
        |  WHERE CAST(t.cand AS INT) = 0 AND NOT EXISTS (
        |    SELECT 1 FROM ops x
        |    WHERE x.node = t.node AND CAST(x.cand AS INT) <> 0
        |      AND CAST(x.b AS DOUBLE) >= CAST(t.b AS DOUBLE))
        |)""".stripMargin,
      "ops" -> ops)
  }

  test("Copeland matches DuckDB") {
    val got = Seq(Copeland.exact(ops, 0)).toDF("score")
    Oracle.assertEquivalent(got,
      """SELECT CAST(COUNT(*) AS DOUBLE) AS score FROM (
        |  SELECT x.cand,
        |         SUM(CASE WHEN CAST(t.b AS DOUBLE) > CAST(x.b AS DOUBLE) THEN 1 ELSE 0 END) AS wins,
        |         SUM(CASE WHEN CAST(t.b AS DOUBLE) < CAST(x.b AS DOUBLE) THEN 1 ELSE 0 END) AS losses
        |  FROM ops t JOIN ops x ON x.node = t.node
        |  WHERE CAST(t.cand AS INT) = 0 AND CAST(x.cand AS INT) <> 0
        |  GROUP BY x.cand
        |) WHERE wins > losses""".stripMargin,
      "ops" -> ops)
  }
}
