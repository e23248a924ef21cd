package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import scala.collection.immutable.BitSet

/** The five voting-based scores of §II-B. Each is defined once, by a
  * per-user `tally` (what user `v`, where the target's opinion is `bq`,
  * adds given the competitors alive at `v`) and a `finish` mapping the
  * summed tally to the score. The kernel [[VoteScore.of]] sums users in node
  * order over dense arrays, so scores do not depend on partitioning; exact
  * and per-scenario scores, the sandwich's user sets and the walk
  * estimators all use it.
  */
sealed trait VoteScore extends Serializable {
  def name: String

  /** Slots of the tally given `m` competitors. */
  def width(m: Int): Int = 1

  /** Adds user `v`'s tally to `acc`; the target is alive at `v`. */
  def tally(v: Int, bq: Double, comp: Array[KeyOpinions], acc: Array[Double]): Unit

  /** The score of a summed tally; `scale` (the walk estimators' n/θ)
    * multiplies the additive scores.
    */
  def finish(acc: Array[Double], scale: Double): Double = acc(0) * scale

  /** An empty tally against `comp`. */
  final def zero(comp: Array[KeyOpinions]): Array[Double] = new Array[Double](width(comp.length))

  /** The kernel: score of the candidate with opinions `target` against `comp`. */
  final def of(target: KeyOpinions, comp: Array[KeyOpinions]): Double = {
    val acc = zero(comp)
    for (v <- target.b.indices if target.alive(v)) tally(v, target.b(v), comp, acc)
    finish(acc, 1.0)
  }

  /** Score of candidate `cand` against every other candidate of `table`. */
  final def of(table: Map[Int, KeyOpinions], cand: Int): Double =
    of(table.getOrElse(cand, KeyOpinions.empty(0)), VoteScore.competitors(table, cand))

  /** Whether user `v`'s ballot alone gives the target a positive score. */
  final def favors(v: Int, target: KeyOpinions, comp: Array[KeyOpinions]): Boolean =
    target.alive(v) && { val acc = zero(comp); tally(v, target.b(v), comp, acc); finish(acc, 1.0) > 0 }

  /** Exact score of `cand` from every candidate's opinions `(node, cand, b)`
    * (collected: one job).
    */
  final def exact(ops: DataFrame, cand: Int): Double = of(KeyOpinions.collect(ops), cand)

  /** Score `(scen, score)` of every scenario of the target opinions
    * `(scen, node, b)` against the competitors' `(node, cand, b)`; both are
    * collected (two jobs) and the result is a local DataFrame.
    */
  final def byScenario(targetOps: DataFrame, compOps: DataFrame): DataFrame = {
    val comp = VoteScore.competitors(KeyOpinions.collect(compOps), Int.MinValue)
    val scen = KeyOpinions.of(targetOps.select(col("scen").cast("long"), col("node").cast("long"),
      col("b").cast("double")).collect().map(r => (r.getLong(0), r.getLong(1), r.getDouble(2))))
    val spark = targetOps.sparkSession
    import spark.implicits._
    scen.toSeq.sortBy(_._1).map { case (s, o) => (s, of(o, comp)) }.toDF("scen", "score")
  }
}

object VoteScore {

  /** Every candidate of `table` but `cand`, in candidate order. */
  def competitors(table: Map[Int, KeyOpinions], cand: Int): Array[KeyOpinions] =
    table.toSeq.filter(_._1 != cand).sortBy(_._1).map(_._2).toArray

  /** All-ones weights used by plurality / p-approval. */
  private[repro] def onesWeights(r: Int): Seq[Double] = Seq.fill(r)(1.0)
}

/** Cumulative score (Eq 3): sum of all users' opinions about the candidate. */
case object Cumulative extends VoteScore {
  val name = "cumulative"

  def tally(v: Int, bq: Double, comp: Array[KeyOpinions], acc: Array[Double]): Unit = acc(0) += bq
}

/** Positional-p-approval score (Eq 6); plurality (Eq 4) and p-approval
  * (Eq 5) are the all-ones-weight special cases below. A user ranks the
  * target `beta` = 1 + the number of alive competitors it rates at least as
  * high, and adds `w[beta] * 1[beta <= p]` if any competitor is alive.
  */
final case class PositionalPApproval(p: Int, weights: Seq[Double]) extends VoteScore {
  require(p >= 1, s"p must be >= 1, got $p")
  require(p <= weights.length, s"p=$p needs at least p position weights, got ${weights.length}")
  require(weights.forall(w => w >= 0 && w <= 1), "position weights must lie in [0,1]")
  require(weights.zip(weights.tail).forall { case (a, b) => b <= a },
    "position weights must be non-increasing")

  val name = s"positional-$p-approval"

  private val w = weights.toArray

  def tally(v: Int, bq: Double, comp: Array[KeyOpinions], acc: Array[Double]): Unit = {
    val beta = 1 + comp.count(c => c.has(v) && c.b(v) >= bq)
    if (beta <= p && comp.exists(_.has(v))) acc(0) += w(beta - 1)
  }
}

object Plurality {
  /** Plurality score (Eq 4) for an `r`-candidate election. */
  def apply(r: Int): PositionalPApproval = PositionalPApproval(1, VoteScore.onesWeights(r))
}

object PApproval {
  /** p-approval score (Eq 5) for an `r`-candidate election. */
  def apply(p: Int, r: Int): PositionalPApproval = PositionalPApproval(p, VoteScore.onesWeights(r))
}

/** Cumulative opinion restricted to a node subset, times a constant —
  * the sandwich lower-bound objective of Def 3:
  * `LB(S) = w[p] * sum_{v in favorable} b_qv[S]`. Submodular (Thm 5), so
  * the plain greedy is (1-1/e)-approximate for it. The `(node)` rows are
  * collected on construction.
  */
final case class RestrictedCumulative(@transient nodes: DataFrame, factor: Double) extends VoteScore {
  val name = "restricted-cumulative"

  private val members = nodes.select(col("node").cast("int")).collect().iterator.map(_.getInt(0)).to(BitSet)

  def tally(v: Int, bq: Double, comp: Array[KeyOpinions], acc: Array[Double]): Unit =
    if (members(v)) acc(0) += bq

  override def finish(acc: Array[Double], scale: Double): Double = acc(0) * factor * scale
}

/** Copeland score (Eq 7): number of one-on-one competitions the candidate
  * wins (strictly more users prefer it than prefer the opponent). A user
  * adds the margin `sign(bq - bx)` for each competitor `x` alive there; the
  * score counts the competitors with a positive summed margin.
  */
case object Copeland extends VoteScore {
  val name = "copeland"

  override def width(m: Int): Int = m

  def tally(v: Int, bq: Double, comp: Array[KeyOpinions], acc: Array[Double]): Unit =
    for (x <- comp.indices if comp(x).has(v)) acc(x) += math.signum(bq - comp(x).b(v))

  override def finish(acc: Array[Double], scale: Double): Double = acc.count(_ > 0).toDouble
}
