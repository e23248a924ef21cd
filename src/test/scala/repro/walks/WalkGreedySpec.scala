package repro.walks

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.SparkSpec
import repro.core._
import repro.expts.{Datasets, RunningExample}

class WalkGreedySpec extends SparkSpec {
  import spark.implicits._

  private lazy val inst = RunningExample.instance(spark)
  private lazy val rnd = Datasets.instance(spark,
    Datasets.Spec("tiny-wg", "tiny", 25, 90, 3, 0, 0, 419), t = 3)

  test("RW greedy k=1 reproduces Example 2 for the cumulative score (user 1)") {
    val r = Methods.rw(inst, Cumulative, 1, seed = 21, lambdaOverride = Some(3000))
    assert(r.seeds == Seq(0L))
  }

  test("RW greedy k=1 reproduces Example 2 for the plurality score (user 3)") {
    val r = Methods.rw(inst, Plurality(2), 1, seed = 22, lambdaOverride = Some(3000))
    assert(r.seeds == Seq(2L))
  }

  test("RW greedy k=1 reproduces Example 2 for the Copeland score (user 3 or 4)") {
    val r = Methods.rw(inst, Copeland, 1, seed = 23, lambdaOverride = Some(3000))
    assert(r.seeds == Seq(2L) || r.seeds == Seq(3L))
    assert(inst.targetScore(Copeland, r.seeds) == 1.0)
  }

  test("RS greedy k=1 finds the optimal cumulative seed with enough sketches") {
    val r = Methods.rs(inst, Cumulative, 1, seed = 24, thetaOverride = Some(20000L))
    assert(r.seeds == Seq(0L))
  }

  test("RS greedy k=1 finds the optimal plurality seed with enough sketches") {
    val r = Methods.rs(inst, Plurality(2), 1, seed = 25, thetaOverride = Some(20000L))
    assert(r.seeds == Seq(2L))
  }

  test("RW returns k distinct valid seeds on a random instance") {
    val r = Methods.rw(rnd, Cumulative, 5, seed = 26, lambdaOverride = Some(30))
    assert(r.seeds.length == 5 && r.seeds.distinct.length == 5)
    assert(r.seeds.forall(s => s >= 0 && s < rnd.n))
  }

  test("RS returns k distinct valid seeds on a random instance") {
    val r = Methods.rs(rnd, Plurality(3), 3, seed = 27, thetaOverride = Some(2000L))
    assert(r.seeds.length == 3 && r.seeds.distinct.length == 3)
  }

  test("RW estimated score trajectory is non-decreasing") {
    val r = Methods.rw(rnd, Cumulative, 5, seed = 28, lambdaOverride = Some(50))
    r.estScores.sliding(2).foreach {
      case Seq(a, b) => assert(b >= a - 1e-9)
      case _         =>
    }
  }

  test("RW cumulative seed quality approaches exact greedy (within 10%)") {
    val dm = GreedyDM.select(rnd, Cumulative, 3, celf = true)
    val rw = Methods.rw(rnd, Cumulative, 3, seed = 29, lambdaOverride = Some(400))
    val fRw = rnd.targetScore(Cumulative, rw.seeds)
    assert(fRw >= 0.9 * dm.scores.last, s"RW $fRw vs DM ${dm.scores.last}")
  }

  test("RW plurality seed quality approaches exact greedy (within 25%)") {
    val dm = GreedyDM.select(rnd, Plurality(3), 3)
    val rw = Methods.rw(rnd, Plurality(3), 3, seed = 30, lambdaOverride = Some(400))
    val fRw = rnd.targetScore(Plurality(3), rw.seeds)
    assert(fRw >= 0.75 * dm.scores.last, s"RW $fRw vs DM ${dm.scores.last}")
  }

  test("RW Copeland gains are consistent: picked seeds never lower the score") {
    val rw = Methods.rw(rnd, Copeland, 2, seed = 31, lambdaOverride = Some(200))
    val f0 = rnd.targetScore(Copeland, Nil)
    assert(rnd.targetScore(Copeland, rw.seeds) >= f0 - 1e-9)
  }

  test("walk greedy rejects unknown scores") {
    import org.apache.spark.sql.functions.lit
    val state = WalkGen.annotate(
      WalkGen.generate(spark, inst.edges, Methods.targetStubbornness(inst),
        WalkGen.uniformStarts(spark, inst.n, 2), inst.t, 1),
      inst, obsIsWalk = false)
    val fake = RestrictedCumulative(spark.range(1).toDF("node"), 1.0)
    intercept[IllegalArgumentException] {
      WalkGreedy.select(inst, fake, 1, state, 1.0)
    }
  }

  test("k validation") {
    val state = WalkGen.annotate(
      WalkGen.generate(spark, inst.edges, Methods.targetStubbornness(inst),
        WalkGen.uniformStarts(spark, inst.n, 2), inst.t, 1),
      inst, obsIsWalk = false)
    intercept[IllegalArgumentException](WalkGreedy.select(inst, Cumulative, 0, state, 1.0))
  }

  /** The two ranked-score gain branches (positional, Copeland) WalkGreedy
    * had before the tally kernel, kept only to pin the kernel's gains.
    */
  private def referenceGains(state: DataFrame, score: VoteScore, compOps: DataFrame,
                             scale: Double): Map[Long, Double] = {
    val est = WalkGreedy.estimates(state).localCheckpoint(true)
    val deltas = state.filter(!col("covered"))
      .select(col("obs"), explode(array_distinct(col("path"))).as("w"),
        (lit(1.0) - col("b0end")).as("inc"))
      .groupBy("w", "obs").agg(sum("inc").as("dsum"))
      .join(est, Seq("obs"))
      .select(col("w"), col("obs"), col("start"), col("est"),
        (col("est") + col("dsum") / col("lam")).as("newEst"))
    val rows = score match {
      case s: PositionalPApproval =>
        def contrib(beta: org.apache.spark.sql.Column) =
          when(beta <= s.p, element_at(array(s.weights.map(lit): _*), beta.cast("int"))).otherwise(lit(0.0))
        val comp = compOps.select(col("node"), col("b").as("bx"))
        val baseC = est.join(comp, est("start") === comp("node"))
          .groupBy("obs")
          .agg((sum(when(col("bx") >= col("est"), 1).otherwise(0)) + 1).as("beta"))
          .select(col("obs"), contrib(col("beta")).as("c0"))
        deltas.join(comp, col("start") === comp("node"))
          .groupBy("w", "obs")
          .agg((sum(when(col("bx") >= col("newEst"), 1).otherwise(0)) + 1).as("beta"))
          .select(col("w"), col("obs"), contrib(col("beta")).as("c1"))
          .join(baseC, Seq("obs"))
          .groupBy("w").agg((sum(col("c1") - col("c0")) * scale).as("gain"))
      case Copeland =>
        val comp = compOps.select(col("node"), col("cand").as("x"), col("b").as("bx"))
        val baseWL = est.join(comp, est("start") === comp("node"))
          .groupBy("x")
          .agg(sum(when(col("est") > col("bx"), 1).otherwise(0)).as("wins0"),
               sum(when(col("est") < col("bx"), 1).otherwise(0)).as("losses0"))
          .localCheckpoint(true)
        val score0 = baseWL.filter(col("wins0") > col("losses0")).count().toDouble
        deltas.join(comp, col("start") === comp("node"))
          .groupBy("w", "x")
          .agg(sum(when(col("newEst") > col("bx"), 1).otherwise(0)
                 - when(col("est") > col("bx"), 1).otherwise(0)).as("dw"),
               sum(when(col("newEst") < col("bx"), 1).otherwise(0)
                 - when(col("est") < col("bx"), 1).otherwise(0)).as("dl"))
          .join(baseWL, Seq("x"))
          .groupBy("w")
          .agg((sum(when(col("wins0") + col("dw") > col("losses0") + col("dl"), 1.0)
            .otherwise(0.0)) - lit(score0)).as("gain"))
      case other => fail(s"no reference branch for ${other.name}")
    }
    rows.collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
  }

  /** The kernel's gains for `state`, as `select` computes them in a round. */
  private def kernelGains(state: DataFrame, score: VoteScore, comp: Broadcast[Array[KeyOpinions]],
                          scale: Double): Map[Long, Double] = {
    val est = WalkGreedy.estimates(state).localCheckpoint(true)
    WalkGreedy.gains(state, est, WalkGreedy.tallies(est, score, comp), score, comp, scale).toMap
  }

  test("ranked walk gains are bit-identical to the old per-score branches") {
    val walks = WalkGen.annotate(
      WalkGen.generate(spark, rnd.edges, Methods.targetStubbornness(rnd),
        WalkGen.uniformStarts(spark, rnd.n, 20), rnd.t, 32),
      rnd, obsIsWalk = false)
    // Some walks already covered, as after a first pick.
    val state = WalkGreedy.applyCover(walks, Seq(3L)).localCheckpoint(true)
    for (s <- Seq(Plurality(3), PApproval(2, 3), Copeland)) {
      val want = referenceGains(state, s, rnd.competitorOpinions(), 1.0)
      assert(want.nonEmpty)
      assert(kernelGains(state, s, rnd.competitors, 1.0) == want, s.name)
    }
  }

  test("walk Copeland gain is finish(new) - finish(old) when a competitor lacks a row") {
    // Three one-walk observations; competitor 2 has no opinion at node 0,
    // the start of the only observation that seeding node 0 moves.
    val state = Seq(
      (0L, 0L, 0L, Seq(0L, 1L), 0.0, false),
      (1L, 1L, 1L, Seq(1L), 0.5, false),
      (2L, 2L, 2L, Seq(2L, 3L), 0.25, false),
    ).toDF("wid", "obs", "start", "path", "b0end", "covered").localCheckpoint(true)
    val compOps = Seq((0L, 1, 0.6), (1L, 1, 0.4), (1L, 2, 0.2), (2L, 1, 0.1), (2L, 2, 0.1))
      .toDF("node", "cand", "b").localCheckpoint(true)
    val comp = spark.sparkContext.broadcast(VoteScore.competitors(KeyOpinions.collect(compOps), 0))
    for (s <- Seq(Plurality(3), Copeland)) {
      val f0 = WalkGreedy.scoreEstimate(state, s, compOps, 1.0)
      val got = kernelGains(state, s, comp, 1.0)
      assert(got.keySet == Set(0L, 1L, 2L, 3L))
      for ((w, g) <- got)
        assert(g == WalkGreedy.scoreEstimate(WalkGreedy.applyCover(state, Seq(w)), s, compOps, 1.0) - f0,
          s"${s.name} w=$w")
    }
    // Both competitors win at the base; seeding node 0 keeps both wins. The
    // old branch dropped competitor 2 (no delta row) and reported a loss.
    assert(kernelGains(state, Copeland, comp, 1.0)(0L) == 0.0)
    assert(referenceGains(state, Copeland, compOps, 1.0)(0L) == -1.0)
    assert(kernelGains(state, Plurality(3), comp, 1.0) == referenceGains(state, Plurality(3), compOps, 1.0))
  }
}
