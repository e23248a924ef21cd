package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** One FJ-Vote problem instance (Problem 1 inputs minus `k`):
  * normalized edges, per-candidate node profile `(node, cand, b0, d)`,
  * node count `n`, candidate count `r`, target candidate `q`, horizon `t`.
  *
  * The graph and the seedless opinions are computed on first use and kept
  * as dense arrays for the instance's lifetime; seeds only change the
  * target's key, which is diffused afresh on the driver.
  */
final case class Instance(edges: DataFrame, profile: DataFrame,
                          n: Long, r: Int, q: Int, t: Int) {
  require(n >= 1, s"need at least one node, got n=$n")
  require(t >= 0, s"time horizon must be non-negative, got $t")
  require(r > 1, s"the paper assumes r > 1 candidates, got $r")
  require(q >= 0 && q < r, s"target candidate $q out of range [0,$r)")

  /** Every seed-selection entry point takes a budget `k` in `[1, n]`. */
  def requireBudget(k: Int): Unit = require(k >= 1 && k <= n, s"k=$k out of range [1, $n]")

  /** In/out-neighbour CSR of `edges`, collected (one job) and broadcast once. */
  lazy val graph: Broadcast[Csr] = Csr.broadcast(edges, n)

  /** Target candidate's seedless profile as arrays, collected once. */
  private[core] lazy val targetBase: KeyProfile = KeyProfile.collect(targetProfile(Nil), graph.value.n)

  /** Exact seedless horizon-`t` opinions by candidate, computed once (one job). */
  lazy val seedlessTable: Map[Int, KeyOpinions] = OpinionDiffusion.diffuseTable(graph, profile, t)

  /** Competitors' horizon opinions (independent of `q`'s seeds, §II-A),
    * in candidate order, broadcast once.
    */
  lazy val competitors: Broadcast[Array[KeyOpinions]] =
    edges.sparkSession.sparkContext.broadcast(VoteScore.competitors(seedlessTable, q))

  /** Every candidate's horizon opinions with `seeds` for `q`: only the
    * target's key is diffused again.
    */
  def opinionTable(seeds: Seq[Long]): Map[Int, KeyOpinions] =
    if (seeds.isEmpty) seedlessTable
    else seedlessTable.updated(q, OpinionDiffusion.fj(graph.value, targetBase.seeded(seeds), t))

  /** [[opinionTable]] as rows `(node, cand, b)` (a local DataFrame). */
  def opinions(seeds: Seq[Long] = Nil): DataFrame = KeyOpinions.toDF(edges.sparkSession, opinionTable(seeds))

  /** Exact competitor opinions at the horizon (independent of `q`'s seeds). */
  def competitorOpinions(): DataFrame = opinions().filter(col("cand") =!= q)

  /** Target candidate's profile `(node, b0, d)` with `seeds` applied. */
  def targetProfile(seeds: Seq[Long]): DataFrame =
    OpinionDiffusion.applySeeds(profile, q, seeds)
      .filter(col("cand") === q)
      .select("node", "b0", "d")

  /** Exact score of candidate `cand` at the horizon given `seeds` for `q`. */
  def scoreOf(score: VoteScore, seeds: Seq[Long], cand: Int): Double =
    score.of(opinionTable(seeds), cand)

  /** Exact target score at the horizon given `seeds`. */
  def targetScore(score: VoteScore, seeds: Seq[Long]): Double =
    scoreOf(score, seeds, q)

  /** Users whose ballot alone gives the target a positive `score` at the
    * horizon given `seeds`: single-column `(node)`, a local DataFrame.
    */
  def usersFavoring(score: VoteScore, seeds: Seq[Long]): DataFrame = {
    val spark = edges.sparkSession
    import spark.implicits._
    val table = opinionTable(seeds)
    val target = table.getOrElse(q, KeyOpinions.empty(0))
    val comp = VoteScore.competitors(table, q)
    target.b.indices.filter(score.favors(_, target, comp)).map(_.toLong).toDF("node")
  }

  /** Problem 2 winning test: target's score strictly exceeds every
    * competitor's score at the horizon (Eq 9).
    */
  def wins(score: VoteScore, seeds: Seq[Long]): Boolean = {
    val table = opinionTable(seeds)
    val tgt = score.of(table, q)
    (0 until r).filter(_ != q).forall(c => tgt > score.of(table, c))
  }
}
