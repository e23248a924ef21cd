package perfbench

import repro.baselines.{Centrality, RRSets}
import repro.core._

/** One FJ-Vote problem: a method, a score and a budget. */
sealed trait Query {
  def name: String
  def score: VoteScore
}

/** Problem 1: choose `k` seeds with `layer`'s entry point. */
final case class Pick(name: String, layer: String, score: VoteScore, k: Int,
                      select: Instance => Answer) extends Query

/** Problem 2: RS greedy to `kMax` seeds, then the minimal winning prefix. */
final case class Win(name: String, score: VoteScore, kMax: Int, theta: Long, walkSeed: Long)
    extends Query

/** Single-operation probes a traced run calls once on the instance. */
object Probes {
  val Fj = "fj"           // diffusion, competitor opinions, exact scores, wins
  val Dm = "dm"           // scenario diffusion, scenario scores, greedy round, coverage
  val Walk = "walk"       // walk generation, walk-greedy round, cover update
  val Bounds = "bounds"   // per-node walk counts
}

/** A workload: its generated instance and the queries one closed-loop
  * client issues back to back, in order.
  */
final case class Workload(name: String, spec: Inputs.Spec, queries: Long => Seq[Query],
                          probes: Set[String], walkTheta: Long, walkK: Int)

object Workloads {

  /** Exact greedy on a small graph: the workload whose time is carried by
    * scenario-vectorised diffusion, scenario scoring and coverage greedy.
    * It generates no walks and makes no win search.
    */
  val dmExact = Workload("dm-exact", Inputs.Spec(n = 200, m = 1200, r = 3, t = 2, offsets = Seq(0.0, 0.15, -0.15)),
    _ => Seq(
      Pick("dm-cumulative-celf-k2", "GreedyDM.select", Cumulative, 2, inst => {
        val res = GreedyDM.select(inst, Cumulative, 2, celf = true)
        Answer(res.seeds, exactScore = Some(res.scores.last))
      }),
      Pick("sandwich-copeland-k1", "Sandwich.run", Copeland, 1,
        inst => Answer(Sandwich.runCopeland(inst, 1).seeds)),
    ),
    Set(Probes.Fj, Probes.Dm), walkTheta = 0, walkK = 0)

  /** Problem 2 on a Table VI-style instance (competitor head start) plus the
    * RR-set and degree baselines: the workload that calls `Instance.wins`
    * repeatedly, generates walks and samples RR sets. It runs no scenario
    * diffusion.
    */
  val winSearch = Workload("win-search", Inputs.Spec(n = 150, m = 900, r = 2, t = 2, offsets = Seq(0.0, 0.07)),
    seed => Seq(
      Win("rs-win-cumulative", Cumulative, kMax = 5, theta = 6000L, walkSeed = seed + 1),
      Pick("ic-cumulative-k2", "RRSets.select", Cumulative, 2,
        inst => Answer(RRSets.select(inst, "ic", 2, 3000L, seed + 3))),
      Pick("dc-cumulative-k2", "Centrality.degree", Cumulative, 2,
        inst => Answer(Centrality.degree(inst, 2))),
    ),
    Set(Probes.Fj, Probes.Walk, Probes.Bounds), walkTheta = 6000L, walkK = 2)

  val all: Seq[Workload] = Seq(dmExact, winSearch)

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; expected one of ${all.map(_.name).mkString(", ")}"))
}
