package perfbench

import repro.core.{Copeland, Cumulative, Instance, VoteScore}

/** What a query's select call returned. `exactScore` is the method's own
  * exact score of its seeds (DM), `estimate` its walk estimate (RS).
  * For Problem 2, `seeds` is the k* prefix and `kStar` is set.
  */
final case class Answer(seeds: Seq[Long], exactScore: Option[Double] = None,
                        estimate: Option[Double] = None, kStar: Option[Int] = None)

/** An answer with its exact evaluation under FJ. For Problem 2, `winsAtK`
  * and `winsBefore` say whether the k* and k*-1 prefixes win (Eq 9).
  */
final case class Outcome(query: Query, answer: Answer, exact: Double,
                         winsAtK: Option[Boolean] = None, winsBefore: Option[Boolean] = None) {
  def seedCount: Int = answer.seeds.size

  /** Exact target score over its maximum: n for cumulative and positional
    * scores, r - 1 for Copeland.
    */
  def voteShare(inst: Instance): Double = query.score match {
    case Copeland => exact / (inst.r - 1)
    case _        => exact / inst.n
  }
}

/** Correctness checks on every query's outcome; each returns the failed
  * conditions, empty when the outcome is correct.
  */
object Checks {
  val Tol = 1e-9

  /** @param base exact score of the empty seed set for the query's score */
  def apply(o: Outcome, inst: Instance, base: Double): Seq[String] = {
    val seeds = o.answer.seeds
    val expected = o.query match {
      case p: Pick => Some(p.k)
      case _: Win  => o.answer.kStar
    }
    val fails = Seq.newBuilder[String]
    o.query match {
      case w: Win if o.answer.kStar.isEmpty =>
        fails += s"no winning prefix within kMax=${w.kMax}"
      case _ =>
    }
    expected.foreach(k => if (seeds.size != k) fails += s"returned ${seeds.size} seeds, expected $k")
    if (seeds.distinct.size != seeds.size) fails += s"duplicate seeds in ${seeds.mkString(",")}"
    seeds.find(s => s < 0 || s >= inst.n).foreach(s => fails += s"seed $s outside [0, ${inst.n})")
    if (o.exact < base - Tol) fails += s"F(S)=${o.exact} below F(empty)=$base"
    (o.query, o.answer.exactScore) match {
      case (p: Pick, Some(rep)) if p.score == Cumulative && math.abs(rep - o.exact) > Tol =>
        fails += s"greedy reported ${rep} but exact re-evaluation gives ${o.exact}"
      case _ =>
    }
    if (o.answer.kStar.nonEmpty && o.winsAtK.contains(false)) fails += s"the k*=${seeds.size} prefix does not win"
    if (o.winsBefore.contains(true)) fails += s"the k*-1=${seeds.size - 1} prefix already wins"
    fails.result()
  }

  /** Exact score of every candidate at the horizon given target `seeds`. */
  def allScores(inst: Instance, score: VoteScore, seeds: Seq[Long]): Seq[Double] = {
    val ops = inst.opinions(seeds).localCheckpoint(true)
    (0 until inst.r).map(c => score.exact(ops, c))
  }

  /** Eq 9: the target's score strictly exceeds every competitor's. */
  def wins(inst: Instance, scores: Seq[Double]): Boolean =
    scores.indices.filter(_ != inst.q).forall(c => scores(inst.q) > scores(c))
}
