package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** One FJ-Vote problem instance (Problem 1 inputs minus `k`):
  * normalized edges, per-candidate node profile `(node, cand, b0, d)`,
  * node count `n`, candidate count `r`, target candidate `q`, horizon `t`.
  *
  * The graph and the seedless opinions are computed on first use and kept
  * for the instance's lifetime; seeds only change the target's key.
  */
final case class Instance(edges: DataFrame, profile: DataFrame,
                          n: Long, r: Int, q: Int, t: Int) {
  require(n >= 1, s"need at least one node, got n=$n")
  require(t >= 0, s"time horizon must be non-negative, got $t")
  require(r > 1, s"the paper assumes r > 1 candidates, got $r")
  require(q >= 0 && q < r, s"target candidate $q out of range [0,$r)")

  /** In/out-neighbour CSR of `edges`, collected (one job) and broadcast once. */
  lazy val graph: Broadcast[Csr] = Csr.broadcast(edges, n)

  /** Target candidate's seedless profile as arrays, collected once. */
  private[core] lazy val targetBase: KeyProfile = KeyProfile.collect(targetProfile(Nil), graph.value.n)

  /** Exact seedless horizon-`t` opinions `(node, cand, b)` of every
    * candidate, computed once.
    */
  lazy val seedlessOpinions: DataFrame =
    OpinionDiffusion.diffuse(graph, profile, t).localCheckpoint(true)

  /** Exact horizon-`t` opinions of every candidate with `seeds` for `q`:
    * the target's key is diffused afresh, the competitors' are memoized
    * (diffusion is independent per candidate, §II-A).
    */
  def opinions(seeds: Seq[Long] = Nil): DataFrame =
    if (seeds.isEmpty) seedlessOpinions
    else OpinionDiffusion.diffuse(graph,
      OpinionDiffusion.applySeeds(profile.filter(col("cand") === q), q, seeds), t)
      .unionByName(competitorOpinions())

  /** Exact competitor opinions at the horizon (independent of `q`'s seeds). */
  def competitorOpinions(): DataFrame = seedlessOpinions.filter(col("cand") =!= q)

  /** Target candidate's profile `(node, b0, d)` with `seeds` applied. */
  def targetProfile(seeds: Seq[Long]): DataFrame =
    OpinionDiffusion.applySeeds(profile, q, seeds)
      .filter(col("cand") === q)
      .select("node", "b0", "d")

  /** Exact score of candidate `cand` at the horizon given `seeds` for `q`. */
  def scoreOf(score: VoteScore, seeds: Seq[Long], cand: Int): Double =
    score.exact(opinions(seeds), cand)

  /** Exact target score at the horizon given `seeds`. */
  def targetScore(score: VoteScore, seeds: Seq[Long]): Double =
    scoreOf(score, seeds, q)

  /** Problem 2 winning test: target's score strictly exceeds every
    * competitor's score at the horizon (Eq 9).
    */
  def wins(score: VoteScore, seeds: Seq[Long]): Boolean = {
    val ops = if (seeds.isEmpty) seedlessOpinions else opinions(seeds).localCheckpoint(true)
    val tgt = score.exact(ops, q)
    (0 until r).filter(_ != q).forall(c => tgt > score.exact(ops, c))
  }
}
