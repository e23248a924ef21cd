package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._

/** One diffusion key's dense FJ inputs over nodes `0 until n`: initial
  * opinions, stubbornness, and which nodes have a profile row at all.
  */
final case class KeyProfile(b0: Array[Double], d: Array[Double], present: Array[Boolean]) {

  /** A copy with `b0 = d = 1` at every seed that has a profile row (§II-C). */
  def seeded(seeds: Iterable[Long]): KeyProfile = {
    val b = b0.clone()
    val dd = d.clone()
    for (s <- seeds if s >= 0 && s < b.length && present(s.toInt)) {
      b(s.toInt) = 1.0
      dd(s.toInt) = 1.0
    }
    KeyProfile(b, dd, present)
  }
}

object KeyProfile {

  /** Profile rows `(node, b0, d)` of one key into arrays of length `n`;
    * rows with node ids outside `0 until n` are dropped.
    */
  def of(rows: Iterator[(Long, Double, Double)], n: Int): KeyProfile = {
    val p = KeyProfile(new Array[Double](n), new Array[Double](n), new Array[Boolean](n))
    for ((v, b0, d) <- rows if v >= 0 && v < n) {
      p.b0(v.toInt) = b0
      p.d(v.toInt) = d
      p.present(v.toInt) = true
    }
    p
  }

  /** Collect a one-key profile `(node, b0, d)` (one job); see [[of]]. */
  def collect(profile: DataFrame, n: Int): KeyProfile =
    of(profile.select(col("node").cast("long"), col("b0").cast("double"), col("d").cast("double"))
      .collect().iterator.map(r => (r.getLong(0), r.getDouble(1), r.getDouble(2))), n)
}

/** One key's horizon opinions over nodes `0 until n`: `b(v)` holds where
  * `alive(v)`, i.e. where the key has an opinion row.
  */
final case class KeyOpinions(b: Array[Double], alive: Array[Boolean]) {

  /** Whether node `v` has an opinion (false past the arrays' end). */
  def has(v: Int): Boolean = v < alive.length && alive(v)

  /** `(node, b)` of every alive node, in node order. */
  def rows: Iterator[(Long, Double)] = b.indices.iterator.filter(alive).map(v => (v.toLong, b(v)))
}

object KeyOpinions {

  def empty(n: Int): KeyOpinions = KeyOpinions(new Array[Double](n), new Array[Boolean](n))

  /** Rows `(key, node, b)` as one [[KeyOpinions]] per key, over nodes `0`
    * to the largest id.
    */
  def of[K](rows: Iterable[(K, Long, Double)]): Map[K, KeyOpinions] = {
    val n = rows.map(_._2.toInt + 1).maxOption.getOrElse(0)
    rows.groupBy(_._1).map { case (k, rs) =>
      val o = empty(n)
      for ((_, v, b) <- rs) { o.b(v.toInt) = b; o.alive(v.toInt) = true }
      k -> o
    }
  }

  /** Collect opinions `(node, cand, b)` (one job) by candidate. */
  def collect(ops: DataFrame): Map[Int, KeyOpinions] =
    of(ops.select(col("cand").cast("int"), col("node").cast("long"), col("b").cast("double"))
      .collect().map(r => (r.getInt(0), r.getLong(1), r.getDouble(2))))

  /** Opinions by candidate as rows `(node, cand, b)`: a local DataFrame. */
  def toDF(spark: SparkSession, table: Map[Int, KeyOpinions]): DataFrame = {
    import spark.implicits._
    table.toSeq.sortBy(_._1).flatMap { case (c, o) => o.rows.map { case (v, b) => (v, c, b) } }
      .toDF("node", "cand", "b")
  }
}

/** Exact opinion diffusion under the Friedkin–Johnsen model (Eq 2 of the
  * paper); DeGroot (Eq 1) is the special case of all-zero stubbornness.
  *
  * Opinions, stubbornness and initial opinions are DataFrames keyed by
  * `(node, cand)`. The graph is a broadcast [[Csr]]; a diffusion is a set
  * of independent keys (a candidate, or a greedy scenario), and each key
  * runs all `t` FJ steps on dense arrays inside one task.
  *
  * Seeding a node `s` for candidate `q` sets `b0 = 1` and `d = 1` for
  * `(s, q)` (§II-C), freezing its opinion about `q` at 1.
  */
object OpinionDiffusion {

  /** Profile `(node, cand, b0, d)` with seed set `seeds` applied for
    * candidate `q`: seeded rows get `b0 = 1, d = 1`.
    */
  def applySeeds(profile: DataFrame, q: Int, seeds: Seq[Long]): DataFrame = {
    if (seeds.isEmpty) profile
    else {
      val isSeed = col("cand") === q && col("node").isInCollection(seeds)
      profile.select(
        col("node"), col("cand"),
        when(isSeed, lit(1.0)).otherwise(col("b0")).as("b0"),
        when(isSeed, lit(1.0)).otherwise(col("d")).as("d"),
      )
    }
  }

  /** `t` FJ steps of one key: `b(v) <- (1 - d(v)) * sum_u w(u,v) b(u) + d(v) b0(v)`.
    * A node is alive at step `s + 1` iff it has a profile row and an
    * in-neighbour alive at step `s` — the inner-join semantics of the
    * edge-list form of Eq 2. Returns the horizon opinions and alive mask.
    */
  private[core] def fj(g: Csr, p: KeyProfile, t: Int): KeyOpinions = {
    var b = p.b0
    var alive = p.present
    for (_ <- 1 to t) {
      val nb = new Array[Double](g.n)
      val na = new Array[Boolean](g.n)
      for (v <- 0 until g.n if p.present(v)) {
        var sum = 0.0
        var any = false
        var e = g.inOff(v)
        while (e < g.inOff(v + 1)) {
          val u = g.inSrc(e)
          if (alive(u)) { sum += b(u) * g.inW(e); any = true }
          e += 1
        }
        if (any) {
          nb(v) = (1.0 - p.d(v)) * sum + p.d(v) * p.b0(v)
          na(v) = true
        }
      }
      b = nb
      alive = na
    }
    KeyOpinions(b, alive)
  }

  /** Runs [[fj]] for every key, inside the task that yields the key with
    * its profile.
    */
  private def run[K](g: Broadcast[Csr], keyed: RDD[(K, KeyProfile)], t: Int): RDD[(K, KeyOpinions)] = {
    require(t >= 0, s"time horizon must be non-negative, got $t")
    keyed.map { case (k, p) => (k, fj(g.value, p, t)) }
  }

  /** One key per candidate: the profile rows grouped by `cand` with one shuffle. */
  private def byCand(g: Broadcast[Csr], profile: DataFrame): RDD[(Int, KeyProfile)] =
    profile
      .select(col("node").cast("long"), col("cand").cast("int"),
        col("b0").cast("double"), col("d").cast("double"))
      .rdd
      .map(r => (r.getInt(1), (r.getLong(0), r.getDouble(2), r.getDouble(3))))
      .groupByKey(new HashPartitioner(profile.sparkSession.sparkContext.defaultParallelism))
      .mapValues(rows => KeyProfile.of(rows.iterator, g.value.n))

  /** Exact opinions `(node, cand, b)` of every user about every candidate at
    * horizon `t`, given normalized edges and profile `(node, cand, b0, d)`;
    * see [[diffuseTable]].
    */
  def diffuse(edges: DataFrame, profile: DataFrame, t: Int): DataFrame =
    KeyOpinions.toDF(profile.sparkSession, diffuseTable(Csr.broadcast(edges, 0), profile, t))

  /** Every candidate's horizon opinions, one key per candidate, collected
    * by candidate (one job).
    */
  def diffuseTable(g: Broadcast[Csr], profile: DataFrame, t: Int): Map[Int, KeyOpinions] =
    run(g, byCand(g, profile), t).collect().toMap

  /** Scenario-vectorized diffusion for greedy marginal-gain evaluation:
    * each scenario is "add candidate seed `scen` on top of the already
    * applied base profile", and is one key of the kernel.
    *
    * @param targetProfile `(node, b0, d)` for the target candidate only,
    *                      with the current seed set already applied
    * @param scenarios     single-column `(scen)` of candidate seed nodes
    * @return `(scen, node, b)` target-candidate opinions at horizon `t`
    */
  def diffuseScenarios(edges: DataFrame, targetProfile: DataFrame,
                       scenarios: DataFrame, t: Int): DataFrame = {
    val g = Csr.broadcast(edges, 0)
    val scen = scenarios.select(col("scen").cast("long")).rdd.map(_.getLong(0))
    val spark = scenarios.sparkSession
    import spark.implicits._
    scenarioOpinions(g, KeyProfile.collect(targetProfile, g.value.n), scen, t)
      .flatMap { case (s, o) => o.rows.map { case (v, b) => (s, v, b) } }
      .toDF("scen", "node", "b")
  }

  /** Horizon opinions of every scenario, each "seed `scen` on top of
    * `target`" and run as one key in the task that holds it, with no shuffle.
    */
  def scenarioOpinions(g: Broadcast[Csr], target: KeyProfile,
                       scenarios: RDD[Long], t: Int): RDD[(Long, KeyOpinions)] = {
    val base = scenarios.sparkContext.broadcast(target)
    run(g, scenarios.map(s => (s, base.value.seeded(Seq(s)))), t)
  }
}
