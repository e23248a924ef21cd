package repro.core

import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.baselines.{Centrality, RRSets}
import repro.expts.{Datasets, RunningExample}
import repro.walks.WalkGreedy

class InstanceSpec extends SparkSpec {

  private lazy val ex = RunningExample.instance(spark)
  private lazy val rnd = Datasets.instance(spark,
    Datasets.Spec("tiny-inst", "tiny", 30, 100, 3, 0, 0, 401), t = 3)

  private def opinionMap(ops: DataFrame): Map[(Long, Int), Double] =
    ops.select("node", "cand", "b").collect().map(r => (r.getLong(0), r.getInt(1)) -> r.getDouble(2)).toMap

  test("Instance rejects a negative horizon") {
    intercept[IllegalArgumentException](ex.copy(t = -1))
  }

  test("Instance rejects an empty node set") {
    intercept[IllegalArgumentException](ex.copy(n = 0))
  }

  test("seeded opinions (target key + memoized competitors) equal a full diffusion") {
    val seeds = Seq(0L, 7L, 19L)
    val full = OpinionDiffusion.diffuse(rnd.edges, OpinionDiffusion.applySeeds(rnd.profile, rnd.q, seeds), rnd.t)
    assert(opinionMap(rnd.opinions(seeds)) == opinionMap(full))
  }

  test("competitor opinions are the seedless opinions without the target") {
    val comp = opinionMap(rnd.competitorOpinions())
    assert(comp.keySet.forall(_._2 != rnd.q))
    assert(comp == opinionMap(rnd.opinions(Nil)).filter(_._1._2 != rnd.q))
    assert(rnd.competitorOpinions().select("cand").distinct().count() == rnd.r - 1)
  }

  test("wins agrees with exact scores of a fresh diffusion") {
    val plu = Plurality(rnd.r)
    for (seeds <- Seq(Nil, Seq(0L), Seq(0L, 1L, 2L, 3L, 4L, 5L))) {
      val ops = OpinionDiffusion.diffuse(rnd.edges,
        OpinionDiffusion.applySeeds(rnd.profile, rnd.q, seeds), rnd.t).localCheckpoint(true)
      val tgt = plu.exact(ops, rnd.q)
      val expected = (0 until rnd.r).filter(_ != rnd.q).forall(c => tgt > plu.exact(ops, c))
      assert(rnd.wins(plu, seeds) == expected, s"seeds=$seeds")
    }
  }

  test("every seed-selection entry point rejects a budget outside [1, n]") {
    import spark.implicits._
    val none = Seq.empty[Long].toDF("node")
    val entryPoints: Seq[(String, Int => Any)] = Seq(
      "GreedyDM.select" -> (k => GreedyDM.select(ex, Cumulative, k)),
      "WalkGreedy.select" -> (k => WalkGreedy.select(ex, Cumulative, k, spark.emptyDataFrame, 1.0)),
      "Sandwich.run" -> (k => Sandwich.run(ex, Plurality(2), k)),
      "Sandwich.runCopeland" -> (k => Sandwich.runCopeland(ex, k)),
      "Sandwich.coverageGreedy" -> (k => Sandwich.coverageGreedy(ex, none, k, 1.0)),
      "RRSets.select" -> (k => RRSets.select(ex, "ic", k, theta = 10L)),
      "Centrality.degree" -> (k => Centrality.degree(ex, k)),
      "Centrality.pageRank" -> (k => Centrality.pageRank(ex, k)),
      "Centrality.rwr" -> (k => Centrality.rwr(ex, k)),
    )
    for ((name, select) <- entryPoints; k <- Seq(0, ex.n.toInt + 1))
      withClue(s"$name k=$k: ") {
        intercept[IllegalArgumentException](select(k))
      }
  }
}
