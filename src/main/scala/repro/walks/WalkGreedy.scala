package repro.walks

import org.apache.spark.broadcast.Broadcast
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
  * opinions, computed once by direct matrix-vector multiplication (§V-B):
  * an observation votes as its start node, with its estimated target
  * opinion, through the scores' shared tally kernel ([[VoteScore]]).
  */
object WalkGreedy {

  /** Ordered seeds and the estimated target score after each pick. */
  final case class Result(seeds: Seq[Long], estScores: Seq[Double])

  /** Mark walks covered by `seeds` (path intersects the seed set). */
  def applyCover(state: DataFrame, seeds: Seq[Long]): DataFrame =
    if (seeds.isEmpty) state
    else state.withColumn("covered", col("covered") || arrays_overlap(col("path"), array(seeds.map(lit): _*)))

  /** Per-observation estimates `(obs, start, est, lam)` under the current
    * cover state: avg over the observation's walks of (1 if covered else
    * b0(end)).
    */
  private[walks] def estimates(state: DataFrame): DataFrame =
    state.groupBy("obs", "start").agg(
      (sum(when(col("covered"), 1.0).otherwise(col("b0end"))) / count(lit(1))).as("est"),
      count(lit(1)).cast("double").as("lam"),
    )

  /** `(w, start, est, newEst)` per observation: the estimate it would
    * move to if `w` were added as a seed (only observations with at least
    * one uncovered walk through `w` appear).
    */
  private def deltas(state: DataFrame, est: DataFrame): DataFrame =
    state.filter(!col("covered"))
      .select(col("obs"), explode(array_distinct(col("path"))).as("w"),
        (lit(1.0) - col("b0end")).as("inc"))
      .groupBy("w", "obs").agg(sum("inc").as("dsum"))
      .join(est, Seq("obs"))
      .select(col("w"), col("start").cast("int"), col("est"), (col("est") + col("dsum") / col("lam")).as("newEst"))

  /** Summed tally of `score` over the observations `(start, est)` of `est`,
    * each voting as its start node with its estimated target opinion.
    */
  private[walks] def tallies(est: DataFrame, score: VoteScore,
                             comp: Broadcast[Array[KeyOpinions]]): Array[Double] =
    est.select(col("start").cast("int"), col("est")).rdd.mapPartitions { rows =>
      val acc = score.zero(comp.value)
      rows.foreach(r => score.tally(r.getInt(0), r.getDouble(1), comp.value, acc))
      Iterator(acc)
    }.collect().foldLeft(score.zero(comp.value))(plus)

  /** Adds `b` into `a`. */
  private def plus(a: Array[Double], b: Array[Double]): Array[Double] = {
    for (i <- a.indices) a(i) += b(i)
    a
  }

  /** Estimated target score of the current cover state, given the
    * competitors' exact opinions `(node, cand, b)` (null for none).
    */
  def scoreEstimate(state: DataFrame, score: VoteScore, compOps: DataFrame,
                    scale: Double): Double = {
    val comp = if (compOps == null) Array.empty[KeyOpinions]
      else VoteScore.competitors(KeyOpinions.collect(compOps), Int.MinValue)
    score.finish(tallies(estimates(state), score, state.sparkSession.sparkContext.broadcast(comp)), scale)
  }

  /** Estimated marginal gain of every candidate seed `w` that an uncovered
    * walk passes through, given the estimates `est` and their tally `base`.
    * Cumulative is max coverage: each such walk jumps from `b0(end)` to 1.
    * Any other score moves the observations `w` affects from `est` to
    * `newEst`: its gain is `finish(base + their tally change) - finish(base)`.
    */
  private[walks] def gains(state: DataFrame, est: DataFrame, base: Array[Double], score: VoteScore,
                           comp: Broadcast[Array[KeyOpinions]], scale: Double): Array[(Long, Double)] =
    score match {
      case Cumulative =>
        state.filter(!col("covered"))
          .select(col("obs"), explode(array_distinct(col("path"))).as("w"),
            (lit(1.0) - col("b0end")).as("inc"))
          .join(est.select(col("obs"), col("lam")), Seq("obs"))
          .groupBy("w").agg((sum(col("inc") / col("lam")) * scale).as("gain"))
          .collect().map(r => (r.getLong(0), r.getDouble(1)))
      case _ =>
        val f0 = score.finish(base, scale)
        deltas(state, est).rdd
          .map(r => (r.getLong(0), (r.getInt(1), r.getDouble(2), r.getDouble(3))))
          .aggregateByKey(score.zero(comp.value))({ case (acc, (v, e0, e1)) =>
            val old = score.zero(comp.value)
            score.tally(v, e0, comp.value, old)
            score.tally(v, e1, comp.value, acc)
            plus(acc, old.map(-_))
          }, plus)
          .map { case (w, d) => (w, score.finish(plus(d, base), scale) - f0) }
          .collect()
    }

  /** Greedy selection of `k` seeds by maximum *estimated* marginal gain
    * (Alg 4 line 6 / Alg 5 line 6), truncating walks after each pick.
    */
  def select(inst: Instance, score: VoteScore, k: Int,
             annotatedWalks: DataFrame, scale: Double): Result = {
    inst.requireBudget(k)
    require(!score.isInstanceOf[RestrictedCumulative], s"walk greedy not defined for ${score.name}")
    var state = annotatedWalks
    var est = estimates(state).localCheckpoint(true)
    var base = tallies(est, score, inst.competitors)
    var seeds = Vector.empty[Long]
    var ests = Vector.empty[Double]

    for (_ <- 1 to k) {
      val eligible = gains(state, est, base, score, inst.competitors, scale)
        .filterNot { case (w, _) => seeds.contains(w) }
      val pick =
        if (eligible.nonEmpty) eligible.minBy { case (w, g) => (-g, w) }._1
        else (0L until inst.n).filterNot(seeds.contains).head
      seeds :+= pick
      state = applyCover(state, Seq(pick)).localCheckpoint(true)
      est = estimates(state).localCheckpoint(true)
      base = tallies(est, score, inst.competitors)
      ests :+= score.finish(base, scale)
    }
    Result(seeds, ests)
  }
}
