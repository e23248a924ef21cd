package repro.core

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{LongType, StructField, StructType}

/** Graph substrate for the paper's opinion-diffusion algorithms.
  *
  * A social graph is an edge DataFrame `(src: Long, dst: Long, w: Double)`
  * over node ids `0 until n`. The influence matrix `W` of the paper is
  * column-stochastic: for every node `v`, the weights of its *incoming*
  * edges sum to 1 (`sum_u w(u,v) = 1`). Nodes with no in-neighbors retain
  * their initial opinions (§II-A); we realize that uniformly by giving such
  * nodes a self-loop of weight 1 during normalization, so the FJ update is
  * the same formula for every node.
  */
object GraphOps {

  /** Normalize raw weighted edges to a column-stochastic matrix and add a
    * weight-1 self-loop for every node with no in-edges. Parallel edges are
    * combined by summing their raw weights. Non-positive weights are dropped.
    */
  def normalize(spark: SparkSession, rawEdges: DataFrame, n: Long): DataFrame = {
    val edges = rawEdges
      .filter(col("w") > 0)
      .groupBy("src", "dst").agg(sum("w").as("w"))
    val inSum = edges.groupBy(col("dst")).agg(sum("w").as("insum"))
    val normalized = edges.join(inSum, "dst")
      .select(col("src"), col("dst"), (col("w") / col("insum")).as("w"))
    val nodes = spark.range(n).toDF("id")
    val sources = nodes.join(edges.select(col("dst").as("id")).distinct(), Seq("id"), "left_anti")
    val selfLoops = sources.select(col("id").as("src"), col("id").as("dst"), lit(1.0).as("w"))
    normalized.unionByName(selfLoops)
  }

  /** True iff incoming weights of every node sum to 1 (within `tol`). */
  def isColumnStochastic(edges: DataFrame, n: Long, tol: Double = 1e-9): Boolean = {
    val bad = edges.groupBy("dst").agg(sum("w").as("s"))
      .filter(abs(col("s") - 1.0) > tol).count()
    val covered = edges.select("dst").distinct().count()
    bad == 0 && covered == n
  }

  /** Edge CDF for sampling one in-neighbor of each node proportionally to
    * its weight: per destination node, in-edges get disjoint intervals
    * `[lo, hi)` that tile `[0, 1)`. A uniform draw `r` selects the unique
    * edge with `lo <= r < hi`.
    */
  def inEdgeCdf(edges: DataFrame): DataFrame = {
    val w = Window.partitionBy("dst").orderBy("src")
    edges.select(
      col("src"), col("dst"), col("w"),
      (sum("w").over(w) - col("w")).as("lo"),
      sum("w").over(w).as("hi"),
    )
  }

  /** Nodes within at most `t` outgoing hops of each node: rows
    * `(root, node)` with `root` reaching `node` in <= t hops (self included
    * at hop 0). This is the per-seed reachable-users set `N_{{s}}^{(t)}`
    * (Def 2) for every possible seed `s` at once. Self-loops added by
    * [[normalize]] are harmless (they only re-reach the same node).
    */
  def reachWithin(spark: SparkSession, edges: DataFrame, n: Long, t: Int): DataFrame = {
    require(t >= 0, s"time horizon must be non-negative, got $t")
    // One BFS per root over the out-neighbour CSR, inside the root's task.
    val g = Csr.broadcast(edges, n)
    val sc = spark.sparkContext
    val rows = sc.range(0L, n, 1L, sc.defaultParallelism).mapPartitions { roots =>
      val csr = g.value
      val seen = Array.fill(csr.n)(-1)
      roots.flatMap(root => csr.reach(root.toInt, t, seen).iterator.map(v => Row(root, v.toLong)))
    }
    spark.createDataFrame(rows, StructType(Seq(
      StructField("root", LongType, nullable = false),
      StructField("node", LongType, nullable = false))))
  }

  /** Weighted out-degree per node: rows `(node, outdeg)`; nodes with no
    * out-edges get 0. Self-loops introduced by normalization are excluded
    * (they carry no social influence).
    */
  def weightedOutDegree(spark: SparkSession, edges: DataFrame, n: Long): DataFrame = {
    val deg = edges.filter(col("src") =!= col("dst"))
      .groupBy(col("src").as("node")).agg(sum("w").as("outdeg"))
    spark.range(n).toDF("node").join(deg, Seq("node"), "left")
      .select(col("node"), coalesce(col("outdeg"), lit(0.0)).as("outdeg"))
  }
}

/** Compressed sparse rows of an edge list over nodes `0 until n`, in both
  * directions: in-edges of `v` are `inOff(v) until inOff(v + 1)` (sources
  * `inSrc`, weights `inW`), out-edges of `u` are `outOff(u) until
  * outOff(u + 1)` (destinations `outDst`). Each segment is sorted by the
  * other endpoint, so any sum over a segment runs in a fixed order whatever
  * the partitioning of the DataFrame it was collected from.
  */
final class Csr(val n: Int, val inOff: Array[Int], val inSrc: Array[Int], val inW: Array[Double],
                val outOff: Array[Int], val outDst: Array[Int]) extends Serializable {

  /** Nodes within at most `t` outgoing hops of `root`, `root` first, in BFS
    * order. `seen` is scratch space of length `n`, reusable across roots as
    * long as no two calls share a root value.
    */
  def reach(root: Int, t: Int, seen: Array[Int]): Array[Int] = {
    val out = scala.collection.mutable.ArrayBuffer(root)
    seen(root) = root
    var lo = 0
    var hop = 0
    while (hop < t && lo < out.size) {
      val hi = out.size
      for (i <- lo until hi; e <- outOff(out(i)) until outOff(out(i) + 1)) {
        val v = outDst(e)
        if (seen(v) != root) { seen(v) = root; out += v }
      }
      lo = hi
      hop += 1
    }
    out.toArray
  }
}

object Csr {

  /** Collect `(src, dst, w)` to the driver (one job) and index it. The node
    * count is `n`, or one past the largest id in `edges` if that is larger.
    */
  def collect(edges: DataFrame, n: Long): Csr = {
    val es = edges.select(col("src").cast("long"), col("dst").cast("long"), col("w").cast("double"))
      .collect()
      .map(r => (r.getLong(0), r.getLong(1), r.getDouble(2)))
    val size = es.foldLeft(n) { case (m, (s, d, _)) => math.max(m, math.max(s, d) + 1) }
    require(size <= Int.MaxValue, s"$size nodes do not fit an array index")
    require(es.forall(e => e._1 >= 0 && e._2 >= 0), "node ids must be non-negative")
    // Sort by (src, dst, w): the out-CSR order; a stable pass by dst then
    // gives every in-segment in (src, w) order.
    val bySrc = es.map(e => (e._1.toInt, e._2.toInt, e._3))
      .sorted(Ordering.Tuple3(Ordering.Int, Ordering.Int, Ordering.Double.TotalOrdering))
    val nn = size.toInt
    val outOff = offsets(nn, bySrc.map(_._1))
    val inOff = offsets(nn, bySrc.map(_._2))
    val next = inOff.clone()
    val inSrc = new Array[Int](bySrc.length)
    val inW = new Array[Double](bySrc.length)
    for ((s, d, w) <- bySrc) {
      inSrc(next(d)) = s
      inW(next(d)) = w
      next(d) += 1
    }
    new Csr(nn, inOff, inSrc, inW, outOff, bySrc.map(_._2))
  }

  /** [[collect]], shipped to the executors as one broadcast. */
  def broadcast(edges: DataFrame, n: Long): Broadcast[Csr] =
    edges.sparkSession.sparkContext.broadcast(collect(edges, n))

  /** Segment offsets (length `n + 1`) of the node ids in `keys`. */
  private def offsets(n: Int, keys: Array[Int]): Array[Int] = {
    val off = new Array[Int](n + 1)
    keys.foreach(k => off(k + 1) += 1)
    for (v <- 0 until n) off(v + 1) += off(v)
    off
  }
}
