package repro.walks

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.core._

/** Greedy seed selection over pre-generated reverse random walks:
  * Algorithm 4 (RW) and Algorithm 5 (RS) share this engine — they differ
  * only in the start-node multiset and the score scale:
  *
  *   - RW: λ_v walks per node, observation = start node, scale = 1;
  *   - RS: one walk from each of θ uniform samples, observation = walk,
  *     scale = n/θ.
  *
  * Post-Generation Truncation (Thm 9): a walk's estimated value under seed
  * set `S` is 1 if its path intersects `S`, else the target's initial
  * opinion of its end node. Hence the marginal gain of a candidate seed `w`
  * is computable for *all* candidates in one scan: every not-yet-covered
  * walk whose path contains `w` would jump from `b0(end)` to 1.
  *
  * Ranking-based scores additionally use the competitors' exact horizon
  * opinions, computed once by direct matrix-vector multiplication (§V-B).
  */
object WalkGreedy {

  /** Ordered seeds and the estimated target score after each pick. */
  final case class Result(seeds: Seq[Long], estScores: Seq[Double])

  /** Mark walks covered by `seeds` (path intersects the seed set). */
  def applyCover(state: DataFrame, seeds: Seq[Long]): DataFrame =
    if (seeds.isEmpty) state
    else {
      val spark = state.sparkSession
      import spark.implicits._
      val sArr = array(seeds.map(lit): _*)
      state.withColumn("covered", col("covered") || arrays_overlap(col("path"), sArr))
    }

  /** Per-observation estimates `(obs, start, est, lam)` under the current
    * cover state: avg over the observation's walks of (1 if covered else
    * b0(end)).
    */
  private def estimates(state: DataFrame): DataFrame =
    state.groupBy("obs", "start").agg(
      (sum(when(col("covered"), 1.0).otherwise(col("b0end"))) / count(lit(1))).as("est"),
      count(lit(1)).cast("double").as("lam"),
    )

  /** `(w, obs, start, est, newEst)`: the estimate each observation would
    * move to if `w` were added as a seed (only observations with at least
    * one uncovered walk through `w` appear).
    */
  private def deltas(state: DataFrame, est: DataFrame): DataFrame =
    state.filter(!col("covered"))
      .select(col("obs"), explode(array_distinct(col("path"))).as("w"),
        (lit(1.0) - col("b0end")).as("inc"))
      .groupBy("w", "obs").agg(sum("inc").as("dsum"))
      .join(est, Seq("obs"))
      .select(col("w"), col("obs"), col("start"), col("est"),
        (col("est") + col("dsum") / col("lam")).as("newEst"))

  /** Estimated target score of the current cover state. */
  def scoreEstimate(state: DataFrame, score: VoteScore, compOps: DataFrame,
                    scale: Double): Double = {
    val est = estimates(state)
    score match {
      case Cumulative =>
        est.agg(sum("est")).head.getDouble(0) * scale
      case s: PositionalPApproval =>
        val comp = compOps.select(col("node"), col("b").as("bx"))
        est.join(comp, est("start") === comp("node"))
          .groupBy("obs")
          .agg((sum(when(col("bx") >= col("est"), 1).otherwise(0)) + 1).as("beta"))
          .agg(sum(VoteScore.positionalContrib(col("beta"), s.p, s.weights)))
          .head.getDouble(0) * scale
      case Copeland =>
        val comp = compOps.select(col("node"), col("cand").as("x"), col("b").as("bx"))
        est.join(comp, est("start") === comp("node"))
          .groupBy("x")
          .agg(sum(when(col("est") > col("bx"), 1).otherwise(0)).as("wins"),
               sum(when(col("est") < col("bx"), 1).otherwise(0)).as("losses"))
          .filter(col("wins") > col("losses")).count().toDouble
      case other =>
        throw new IllegalArgumentException(s"walk estimation not defined for ${other.name}")
    }
  }

  /** Greedy selection of `k` seeds by maximum *estimated* marginal gain
    * (Alg 4 line 6 / Alg 5 line 6), truncating walks after each pick.
    */
  def select(inst: Instance, score: VoteScore, k: Int,
             annotatedWalks: DataFrame, scale: Double): Result = {
    require(k >= 1 && k <= inst.n, s"k=$k out of range [1, ${inst.n}]")
    val compOps = score match {
      case Cumulative => null // cumulative never consults competitors
      case _          => inst.competitorOpinions()
    }
    var state = annotatedWalks
    var seeds = Vector.empty[Long]
    var ests = Vector.empty[Double]

    for (_ <- 1 to k) {
      val est = estimates(state).localCheckpoint(true)
      val gainRows: Array[(Long, Double)] = score match {
        case Cumulative =>
          state.filter(!col("covered"))
            .select(col("obs"), explode(array_distinct(col("path"))).as("w"),
              (lit(1.0) - col("b0end")).as("inc"))
            .join(est.select(col("obs"), col("lam")), Seq("obs"))
            .groupBy("w").agg((sum(col("inc") / col("lam")) * scale).as("gain"))
            .collect().map(r => (r.getLong(0), r.getDouble(1)))

        case s: PositionalPApproval =>
          val comp = compOps.select(col("node"), col("b").as("bx"))
          val baseC = est.join(comp, est("start") === comp("node"))
            .groupBy("obs")
            .agg((sum(when(col("bx") >= col("est"), 1).otherwise(0)) + 1).as("beta"))
            .select(col("obs"),
              VoteScore.positionalContrib(col("beta"), s.p, s.weights).as("c0"))
            .localCheckpoint(true)
          deltas(state, est)
            .join(comp, col("start") === comp("node"))
            .groupBy("w", "obs")
            .agg((sum(when(col("bx") >= col("newEst"), 1).otherwise(0)) + 1).as("beta"))
            .select(col("w"), col("obs"),
              VoteScore.positionalContrib(col("beta"), s.p, s.weights).as("c1"))
            .join(baseC, Seq("obs"))
            .groupBy("w").agg((sum(col("c1") - col("c0")) * scale).as("gain"))
            .collect().map(r => (r.getLong(0), r.getDouble(1)))

        case Copeland =>
          val comp = compOps.select(col("node"), col("cand").as("x"), col("b").as("bx"))
          val baseWL = est.join(comp, est("start") === comp("node"))
            .groupBy("x")
            .agg(sum(when(col("est") > col("bx"), 1).otherwise(0)).as("wins0"),
                 sum(when(col("est") < col("bx"), 1).otherwise(0)).as("losses0"))
            .localCheckpoint(true)
          val score0 = baseWL.filter(col("wins0") > col("losses0")).count().toDouble
          deltas(state, est)
            .join(comp, col("start") === comp("node"))
            .groupBy("w", "x")
            .agg(sum(when(col("newEst") > col("bx"), 1).otherwise(0)
                   - when(col("est") > col("bx"), 1).otherwise(0)).as("dw"),
                 sum(when(col("newEst") < col("bx"), 1).otherwise(0)
                   - when(col("est") < col("bx"), 1).otherwise(0)).as("dl"))
            .join(baseWL, Seq("x"))
            .groupBy("w")
            .agg((sum(when(col("wins0") + col("dw") > col("losses0") + col("dl"), 1.0)
              .otherwise(0.0)) - lit(score0)).as("gain"))
            .collect().map(r => (r.getLong(0), r.getDouble(1)))

        case other =>
          throw new IllegalArgumentException(s"walk greedy not defined for ${other.name}")
      }

      val eligible = gainRows.filterNot { case (w, _) => seeds.contains(w) }
      val pick =
        if (eligible.nonEmpty) eligible.minBy { case (w, g) => (-g, w) }._1
        else (0L until inst.n).filterNot(seeds.contains).head
      seeds :+= pick
      state = applyCover(state, Seq(pick)).localCheckpoint(true)
      ests :+= scoreEstimate(state, score, compOps, scale)
    }
    Result(seeds, ests)
  }
}
